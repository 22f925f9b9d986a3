package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/partial_golden.{bin,txt} from the seeded states")

// goldenPartialStates builds the fixed seeded states whose wire bytes are
// pinned in testdata/partial_golden.bin (and whose counts and bit patterns
// testdata/partial_golden.txt records in the JSON form the wire carried
// before the binary codec): dense and map-indexed tables, 1-D and 2-D, every
// aggregate kind, filtered and not, each split at a fixed row and merged (so
// the moments merge is in the bytes too). Both files were last regenerated
// when the accumulator became shifted moments: only mean/M2 bits changed.
func goldenPartialStates(t *testing.T) map[string]*Partial {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	db := randomDB(t, rng, 2*BatchRows+517, true)
	nominal := func(f string) query.Binning { return query.Binning{Field: f, Kind: dataset.Nominal} }
	quant := func(f string, w float64) query.Binning {
		return query.Binning{Field: f, Kind: dataset.Quantitative, Width: w, Origin: -37.5}
	}
	cases := map[string]*query.Query{
		"count_1d": {Bins: []query.Binning{nominal("cat_a")},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"filtered_all_aggs": {Bins: []query.Binning{nominal("dim_cat")},
			Aggs: []query.Aggregate{
				{Func: query.Avg, Field: "x"}, {Func: query.Min, Field: "y"},
				{Func: query.Max, Field: "dim_q"}, {Func: query.Sum, Field: "y"},
				{Func: query.Count, Field: "x"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "x", Op: query.OpRange, Lo: -80, Hi: 120},
				{Field: "cat_b", Op: query.OpIn, Values: []string{"b1", "b3", "nope"}}}}},
		"avg_2d": {Bins: []query.Binning{quant("x", 50), nominal("cat_b")},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}}},
		"minmax_map": {Bins: []query.Binning{quant("y", 1)},
			Aggs: []query.Aggregate{{Func: query.Min, Field: "x"}, {Func: query.Max, Field: "x"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "cat_b", Op: query.OpIn, Values: []string{"b2"}},
				{Field: "x", Op: query.OpRange, Lo: 0, Hi: 25}}}},
	}
	out := make(map[string]*Partial, len(cases))
	for name, q := range cases {
		q.VizName, q.Table = "v", "fact"
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := NewGroupState(plan), NewGroupState(plan)
		split := BatchRows + 1000
		a.ScanRange(0, split)
		b.ScanRange(split, plan.NumRows)
		a.Merge(b)
		n := int64(plan.NumRows)
		out[name] = a.Partial(n, n, n, true)
	}
	return out
}

// goldenPartial is the shape of one line of testdata/partial_golden.txt: the
// JSON document the wire carried before the binary codec, floats as decimal
// IEEE-754 bit patterns.
type goldenPartial struct {
	RowsSeen   int64       `json:"rows_seen"`
	Population int64       `json:"population"`
	Watermark  int64       `json:"watermark"`
	Complete   bool        `json:"complete"`
	Bins       []goldenBin `json:"bins"`
}

type goldenBin struct {
	Key  query.BinKey `json:"key"`
	N    int64        `json:"n"`
	W    []goldenWire `json:"w"`
	Mins []uint64     `json:"mins"`
	Maxs []uint64     `json:"maxs"`
}

type goldenWire struct {
	N    int64  `json:"n"`
	Mean uint64 `json:"mean"`
	M2   uint64 `json:"m2"`
}

// goldenOf is p in the text golden's shape.
func goldenOf(p *Partial) *goldenPartial {
	g := &goldenPartial{RowsSeen: p.RowsSeen, Population: p.Population, Watermark: p.Watermark, Complete: p.Complete}
	for _, pb := range p.Bins {
		gb := goldenBin{Key: pb.Key, N: pb.N}
		for a, w := range pb.W {
			gb.W = append(gb.W, goldenWire{N: w.N, Mean: math.Float64bits(w.Mean), M2: math.Float64bits(w.M2)})
			gb.Mins = append(gb.Mins, math.Float64bits(pb.Mins[a]))
			gb.Maxs = append(gb.Maxs, math.Float64bits(pb.Maxs[a]))
		}
		g.Bins = append(g.Bins, gb)
	}
	return g
}

// sameBits reports whether p holds exactly the counts and IEEE-754 bit
// patterns g recorded.
func (g *goldenPartial) sameBits(t *testing.T, name string, p *Partial) {
	t.Helper()
	if p.RowsSeen != g.RowsSeen || p.Population != g.Population || p.Watermark != g.Watermark ||
		p.Complete != g.Complete || len(p.Bins) != len(g.Bins) {
		t.Fatalf("%s: header/bin count differ from the text golden", name)
	}
	for i, gb := range g.Bins {
		pb := p.Bins[i]
		if pb.Key != gb.Key || pb.N != gb.N || len(pb.W) != len(gb.W) ||
			len(pb.Mins) != len(gb.Mins) || len(pb.Maxs) != len(gb.Maxs) {
			t.Fatalf("%s bin %d: key, count or arity differ from the text golden", name, i)
		}
		for a, gw := range gb.W {
			w := pb.W[a]
			if w.N != gw.N || math.Float64bits(w.Mean) != gw.Mean || math.Float64bits(w.M2) != gw.M2 {
				t.Errorf("%s bin %v agg %d: moments %+v, golden %+v", name, pb.Key, a, w, gw)
			}
			if math.Float64bits(pb.Mins[a]) != gb.Mins[a] || math.Float64bits(pb.Maxs[a]) != gb.Maxs[a] {
				t.Errorf("%s bin %v agg %d: min/max bits differ from the text golden", name, pb.Key, a)
			}
		}
	}
}

// TestPartialGoldenBytes pins the engine.Partial wire form: the binary
// encodings of fixed seeded states must equal the checked-in bytes, and what
// those bytes decode to must hold every count and every IEEE-754 bit pattern
// the JSON form of the same states recorded before the binary codec replaced
// it — the layout changed, the bits did not.
func TestPartialGoldenBytes(t *testing.T) {
	states := goldenPartialStates(t)
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	// The golden file is the cases in name order, each a length-prefixed name
	// followed by a length-prefixed encoding.
	var built []byte
	for _, name := range names {
		enc := states[name].AppendBinary(nil)
		built = binary.AppendUvarint(built, uint64(len(name)))
		built = append(built, name...)
		built = binary.AppendUvarint(built, uint64(len(enc)))
		built = append(built, enc...)
	}
	const path = "testdata/partial_golden.bin"
	if *updateGolden {
		var text []byte
		for _, name := range names {
			line, err := json.Marshal(goldenOf(states[name]))
			if err != nil {
				t.Fatal(err)
			}
			text = append(append(append(append(text, name...), '\t'), line...), '\n')
		}
		if err := os.WriteFile(path, built, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/partial_golden.txt", text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, golden) {
		t.Errorf("wire bytes of the seeded states differ from %s (%d bytes built, %d golden)", path, len(built), len(golden))
	}

	raw, err := os.ReadFile("testdata/partial_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := make(map[string]*goldenPartial)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, body, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		g := new(goldenPartial)
		if err := json.Unmarshal([]byte(body), g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text[name] = g
	}
	if len(text) != len(names) {
		t.Fatalf("%d text golden cases, %d built", len(text), len(names))
	}
	for rest := golden; len(rest) > 0; {
		n, w := binary.Uvarint(rest)
		name := string(rest[w : w+int(n)])
		rest = rest[w+int(n):]
		n, w = binary.Uvarint(rest)
		enc := rest[w : w+int(n)]
		rest = rest[w+int(n):]
		var p Partial
		if err := p.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", name, err)
		}
		g := text[name]
		if g == nil {
			t.Fatalf("binary golden case %q has no text golden", name)
		}
		g.sameBits(t, name, &p)
		if !reflect.DeepEqual(&p, states[name]) {
			t.Errorf("%s: decoded golden differs from the seeded state", name)
		}
	}
}

// TestPartialBinaryRoundTrip: partials of random states — empty, 1-D, 2-D,
// dense and map-indexed, COUNT-only, MIN/MAX-only, every aggregate at once —
// decode to exactly what was encoded, re-encode to the same bytes, and fold
// to the same rendered result.
func TestPartialBinaryRoundTrip(t *testing.T) {
	nominal := func(f string) query.Binning { return query.Binning{Field: f, Kind: dataset.Nominal} }
	quant := func(f string, w float64) query.Binning {
		return query.Binning{Field: f, Kind: dataset.Quantitative, Width: w, Origin: -3}
	}
	shapes := []query.Query{
		{Bins: []query.Binning{nominal("cat_a")}, Aggs: []query.Aggregate{{Func: query.Count}}},
		{Bins: []query.Binning{quant("y", 7)}, Aggs: []query.Aggregate{{Func: query.Min, Field: "x"}, {Func: query.Max, Field: "y"}}},
		{Bins: []query.Binning{quant("x", 40), nominal("cat_b")}, Aggs: []query.Aggregate{
			{Func: query.Sum, Field: "y"}, {Func: query.Count}, {Func: query.Avg, Field: "x"},
			{Func: query.Max, Field: "x"}, {Func: query.Min, Field: "y"}}},
		{Bins: []query.Binning{nominal("cat_b"), nominal("cat_a")}, Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}}},
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(t, rng, 1+rng.Intn(3000), false)
		for i := range shapes {
			q := shapes[i]
			q.VizName, q.Table = "v", "fact"
			if rng.Intn(3) == 0 { // sometimes nothing matches: a partial without bins
				q.Filter = query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: 1e9, Hi: 2e9}}}
			}
			plan, err := Compile(db, &q)
			if err != nil {
				t.Fatal(err)
			}
			gs := NewGroupState(plan)
			seen := rng.Intn(plan.NumRows + 1)
			gs.ScanRange(0, seen)
			in := gs.Partial(int64(seen), int64(plan.NumRows), int64(plan.NumRows)+rng.Int63n(5), seen == plan.NumRows)
			enc := in.AppendBinary(nil)
			var out Partial
			if err := out.UnmarshalBinary(enc); err != nil {
				t.Fatalf("seed %d shape %d: %v", seed, i, err)
			}
			if len(in.Bins) == 0 {
				in.Bins = nil // the decoder makes no slab for no bins
			}
			if !reflect.DeepEqual(in, &out) {
				t.Fatalf("seed %d shape %d: decoded partial differs from the encoded one", seed, i)
			}
			if again := out.AppendBinary(nil); !bytes.Equal(enc, again) {
				t.Fatalf("seed %d shape %d: re-encoding differs", seed, i)
			}
			a, b := NewPartialFold(q.Aggs), NewPartialFold(q.Aggs)
			a.Add(in)
			b.Add(&out)
			if ra, rb := a.Render(1.96), b.Render(1.96); !bytes.Equal(ra.AppendBinary(nil), rb.AppendBinary(nil)) {
				t.Fatalf("seed %d shape %d: fold of the decoded partial renders differently", seed, i)
			}
		}
	}
	// Non-finite and signed-zero accumulator contents cross bit-exact.
	odd := &Partial{RowsSeen: 2, Population: 2, Bins: []PartialBin{{
		Key: query.BinKey{A: -9, B: 4}, N: 2,
		W:    []WelfordWire{{N: 2, Mean: math.NaN(), M2: math.Inf(1)}, {N: 1, Mean: math.Copysign(0, -1)}},
		Mins: []float64{math.Inf(-1), math.Inf(1)},
		Maxs: []float64{math.Float64frombits(0x7ff8dead0000beef), math.Inf(-1)},
	}}}
	var got Partial
	if err := got.UnmarshalBinary(odd.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	// NaN != NaN, so the comparison is on encodings and on the bits themselves.
	b := got.Bins[0]
	if !bytes.Equal(odd.AppendBinary(nil), got.AppendBinary(nil)) || !math.IsNaN(b.W[0].Mean) || !math.IsInf(b.W[0].M2, 1) ||
		!math.Signbit(b.W[1].Mean) || !math.IsInf(b.Mins[0], -1) || math.Float64bits(b.Maxs[0]) != 0x7ff8dead0000beef {
		t.Errorf("non-finite partial changed in transit: %+v", b)
	}
}

// TestPartialBinaryHostile: a coordinator decodes what a shard connection
// hands it. Every strict prefix of a valid encoding is an error, and a header
// announcing far more than its bytes could hold is refused before anything
// is sized from it.
func TestPartialBinaryHostile(t *testing.T) {
	valid := goldenPartialStates(t)["filtered_all_aggs"].AppendBinary(nil)
	var p Partial
	for n := 0; n < len(valid); n++ {
		if err := p.UnmarshalBinary(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(valid))
		}
	}
	if err := p.UnmarshalBinary(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// 2^31 bins × 2^16 aggregates in 16 bytes.
	huge := []byte{partialTag, 0, 0, 0, 0}
	huge = binary.AppendUvarint(huge, 1<<31)
	huge = binary.AppendUvarint(huge, 1<<16)
	huge = append(huge, make([]byte, 16-len(huge))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.UnmarshalBinary(huge); err == nil {
		t.Error("2^31 × 2^16 header in 16 bytes decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 { // the errors, not the slabs
		t.Errorf("refusing the hostile header allocated %d bytes", grew)
	}
	// Bins that fit, aggregates beyond the limit, all-empty masks.
	wide := []byte{partialTag, 0, 0, 0, 0}
	wide = binary.AppendUvarint(wide, 1)
	wide = binary.AppendUvarint(wide, MaxPartialAggs+1)
	wide = append(wide, make([]byte, MaxPartialAggs+1+1+8)...)
	if err := p.UnmarshalBinary(wide); err == nil {
		t.Errorf("partial with %d aggregates decoded", MaxPartialAggs+1)
	}
}

// TestPartialFoldDropsMalformedBins: a coordinator folds what shards send, so
// a bin no GroupState of the query could have produced — a non-positive row
// count, a moment count other than the bin's (the fold counts moments by the
// bin's rows), moments missing for an AVG — must neither panic the render
// nor disturb the bins well-formed fragments filled.
func TestPartialFoldDropsMalformedBins(t *testing.T) {
	aggs := []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}}
	good := func() *Partial {
		return &Partial{RowsSeen: 3, Population: 9, Bins: []PartialBin{
			{Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {N: 3, Mean: 2}}}}}
	}
	want := NewPartialFold(aggs)
	want.Add(good())
	wantRes := want.Render(1.96)

	for name, bad := range map[string]PartialBin{
		"negative n":        {Key: query.BinKey{A: 1}, N: -3},
		"zero n":            {Key: query.BinKey{A: 2}, N: 0},
		"negative new bin":  {Key: query.BinKey{A: 5}, N: -1},
		"negative moment n": {Key: query.BinKey{A: 1}, N: 2, W: []WelfordWire{{}, {N: -2, Mean: 7}}},
		"moment n below n":  {Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {N: 2, Mean: 7, M2: 1}}},
		"moment n above n":  {Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {N: 4, Mean: 7, M2: 1}}},
		"zero moment n":     {Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {Mean: 7}}},
		"no moments":        {Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {}}},
		"short moments":     {Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}}},
	} {
		// Alone, with rows seen: the frame of the review's reproduction.
		fold := NewPartialFold(aggs)
		fold.Add(&Partial{RowsSeen: 3, Population: 9, Bins: []PartialBin{bad}})
		if res := fold.Render(1.96); len(res.Bins) != 0 {
			t.Errorf("%s alone: rendered %d bins, want 0", name, len(res.Bins))
		}
		// Beside a well-formed fragment, in either order.
		for _, badFirst := range []bool{true, false} {
			fold := NewPartialFold(aggs)
			frames := []*Partial{good(), {Bins: []PartialBin{bad}}}
			if badFirst {
				frames[0], frames[1] = frames[1], frames[0]
			}
			for _, p := range frames {
				fold.Add(p)
			}
			if res := fold.Render(1.96); !reflect.DeepEqual(res.Bins, wantRes.Bins) {
				t.Errorf("%s (bad first: %v): bins %v, want %v", name, badFirst, res.Bins, wantRes.Bins)
			}
		}
	}

	// Counts that overflow to a negative sum unmark the bin; they do not panic.
	fold := NewPartialFold(aggs)
	huge := &Partial{RowsSeen: 1, Population: 1, Bins: []PartialBin{{Key: query.BinKey{A: 1}, N: math.MaxInt64}}}
	fold.Add(huge)
	fold.Add(huge)
	if res := fold.Render(1.96); len(res.Bins) != 0 {
		t.Errorf("overflowed count rendered %d bins, want 0", len(res.Bins))
	}
}

// FuzzPartialBinary feeds arbitrary bytes to the Partial decoder — the
// payload a coordinator reads off a shard connection. Whatever decodes must
// re-encode to bytes that decode to the same state and are a fixed point of
// decode∘encode, and must fold and render without panicking, whatever its
// counts and moments claim.
func FuzzPartialBinary(f *testing.F) {
	key := query.BinKey{A: 1}
	for _, p := range []*Partial{
		{RowsSeen: 3, Population: 9, Watermark: 9, Bins: []PartialBin{{Key: key, N: 3,
			W: []WelfordWire{{N: 3, Mean: 1}}, Mins: []float64{math.Inf(1)}, Maxs: []float64{math.Inf(-1)}}}},
		{Bins: []PartialBin{{Key: query.BinKey{A: -4, B: 2}}, {Key: query.BinKey{A: -4, B: 2}, N: 2, W: []WelfordWire{}}}},
		{Complete: true},
		// Counts no producer emits: negative, summing to zero across bins of
		// one key, and overflowing int64 when the frame is added twice.
		{RowsSeen: 3, Population: 9, Bins: []PartialBin{{Key: key, N: -3}}},
		{RowsSeen: 3, Population: 9, Bins: []PartialBin{{Key: key, N: 2},
			{Key: key, N: -2, W: []WelfordWire{{}, {N: -2}}}}},
		// Moments whose count is not the bin's: the fold would misread them.
		{RowsSeen: 3, Population: 9, Bins: []PartialBin{{Key: key, N: 3,
			W: []WelfordWire{{}, {N: 2, Mean: 7, M2: 1}}}}},
		{RowsSeen: 1, Population: 1, Bins: []PartialBin{{Key: query.BinKey{}, N: math.MaxInt64}}},
	} {
		f.Add(p.AppendBinary(nil))
	}
	aggs := []query.Aggregate{
		{Func: query.Count}, {Func: query.Avg, Field: "x"},
		{Func: query.Min, Field: "x"}, {Func: query.Max, Field: "x"}, {Func: query.Sum, Field: "x"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if p.UnmarshalBinary(data) != nil {
			return
		}
		enc := p.AppendBinary(nil)
		var again Partial
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("own encoding does not decode: %v\n%x", err, enc)
		}
		if enc2 := again.AppendBinary(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
		fold := NewPartialFold(aggs)
		fold.Add(&p)
		fold.Add(&again)
		if res := fold.Render(1.96); res == nil {
			t.Fatal("nil render")
		}
	})
}
