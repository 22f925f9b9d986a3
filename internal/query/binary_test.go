package query

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomResult builds a result of the given shape: bins bins of aggs
// aggregates, keys 2-D when twoD, margins all zero when exact.
func randomResult(rng *rand.Rand, bins, aggs int, twoD, exact bool) *Result {
	r := NewResult()
	r.RowsSeen = rng.Int63n(1 << 40)
	r.TotalRows = r.RowsSeen + rng.Int63n(1000)
	r.Watermark = r.TotalRows
	r.Complete = exact
	for len(r.Bins) < bins {
		k := BinKey{A: rng.Int63n(4000) - 2000}
		if twoD {
			k.B = rng.Int63n(60) - 30
		}
		bv := &BinValue{Values: make([]float64, aggs), Margins: make([]float64, aggs)}
		for j := range bv.Values {
			bv.Values[j] = rng.NormFloat64() * 1e6
			if !exact {
				bv.Margins[j] = rng.Float64() * 10
			}
		}
		r.Bins[k] = bv
	}
	return r
}

// TestResultBinaryRoundTrip: results of every shape the tiers produce —
// empty, 1-D, 2-D, exact, estimated, with and without a coverage block —
// decode to exactly what was encoded and re-encode to the same bytes.
func TestResultBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		in := randomResult(rng, rng.Intn(40), 1+rng.Intn(4), rng.Intn(2) == 0, rng.Intn(2) == 0)
		if rng.Intn(3) == 0 {
			in.Coverage = &Coverage{PartitionsAnswered: rng.Intn(4), PartitionsTotal: 4,
				PopulationFraction: rng.Float64(), Degraded: rng.Intn(2) == 0}
		}
		enc := in.AppendBinary(nil)
		var out Result
		if err := out.UnmarshalBinary(enc); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Fatalf("case %d: decoded result differs:\n in %+v\nout %+v", i, in, &out)
		}
		if again := out.AppendBinary(nil); !bytes.Equal(enc, again) {
			t.Fatalf("case %d: re-encoding differs", i)
		}
	}
}

// TestResultBinaryNonFinite: the values encoding/json refuses — ±Inf, NaN —
// and -0 cross bit-exact, in values and in margins.
func TestResultBinaryNonFinite(t *testing.T) {
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), math.Float64frombits(0x7ff8dead0000beef)}
	in := NewResult()
	in.Bins[BinKey{A: 1}] = &BinValue{Values: odd, Margins: make([]float64, len(odd))}
	in.Bins[BinKey{A: 2}] = &BinValue{Values: make([]float64, len(odd)), Margins: odd}
	var out Result
	if err := out.UnmarshalBinary(in.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	for i, want := range odd {
		if got := out.Bins[BinKey{A: 1}].Values[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("value %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
		if got := out.Bins[BinKey{A: 2}].Margins[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("margin %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestResultBinaryPadsRaggedBins: the encoder has no result it refuses; bins
// that disagree on arity travel at the widest, zero-padded.
func TestResultBinaryPadsRaggedBins(t *testing.T) {
	in := NewResult()
	in.Bins[BinKey{A: 1}] = &BinValue{Values: []float64{1, 2, 3}, Margins: []float64{4}}
	in.Bins[BinKey{A: 2}] = &BinValue{Values: []float64{5}}
	var out Result
	if err := out.UnmarshalBinary(in.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	want := map[BinKey]*BinValue{
		{A: 1}: {Values: []float64{1, 2, 3}, Margins: []float64{4, 0, 0}},
		{A: 2}: {Values: []float64{5, 0, 0}, Margins: []float64{0, 0, 0}},
	}
	if !reflect.DeepEqual(out.Bins, want) {
		t.Errorf("ragged bins decoded as %+v", out.Bins)
	}
}

// TestResultBinaryHostile: the decoder reads a socket. Every strict prefix of
// a valid encoding is an error, and a header announcing far more than its
// bytes could hold is refused before anything is sized from it.
func TestResultBinaryHostile(t *testing.T) {
	in := randomResult(rand.New(rand.NewSource(3)), 12, 2, true, false)
	in.Coverage = &Coverage{PartitionsAnswered: 1, PartitionsTotal: 2, PopulationFraction: 0.5, Degraded: true}
	valid := in.AppendBinary(nil)
	var r Result
	for n := 0; n < len(valid); n++ {
		if err := r.UnmarshalBinary(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(valid))
		}
	}
	if err := r.UnmarshalBinary(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	for name, hdr := range map[string][2]uint64{
		"2^31 bins of 2^16 aggregates":                      {1 << 31, 1 << 16},
		"bins that fit, aggregates whose product overflows": {2, 1 << 62},
	} {
		huge := []byte{resultTag, 0, 0, 0, 0}
		huge = binary.AppendUvarint(huge, hdr[0])
		huge = binary.AppendUvarint(huge, hdr[1])
		for len(huge) < 16 {
			huge = append(huge, 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := r.UnmarshalBinary(huge); err == nil {
			t.Errorf("%s: decoded", name)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 { // the errors, not the slabs
			t.Errorf("%s: refusal allocated %d bytes", name, grew)
		}
	}
}
