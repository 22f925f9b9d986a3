package ingest_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// oneRow is a hand-built 1-row batch of the flights shape's first two kinds.
func oneRow() *ingest.Batch {
	return &ingest.Batch{Table: "flights", Seq: 3, Columns: []ingest.Column{
		{Kind: dataset.Nominal, Dict: []string{"O'Hare"}, Codes: []uint32{0}},
		{Kind: dataset.Quantitative, Nums: []float64{12.5}},
	}}
}

// awkwardFloats carries -0, the smallest subnormal, the largest finite value
// and a subnormal's negation: bit patterns a text codec would round.
func awkwardFloats() *ingest.Batch {
	return &ingest.Batch{Table: "flights", Seq: -9, Columns: []ingest.Column{
		{Kind: dataset.Quantitative, Nums: []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64 * 3}},
	}}
}

// wideDict has a 300-value dictionary, every value used once.
func wideDict() *ingest.Batch {
	c := ingest.Column{Kind: dataset.Nominal}
	for i := 0; i < 300; i++ {
		c.Dict = append(c.Dict, fmt.Sprintf("airport-%03d", i))
		c.Codes = append(c.Codes, uint32(i))
	}
	return &ingest.Batch{Table: "flights", Columns: []ingest.Column{c}}
}

// hugeClaim is a 24-byte input whose header announces 2^31 rows of one
// column: the decoder must refuse it before sizing anything from the count.
func hugeClaim() []byte {
	b := []byte{0x41, 1, 't'}
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, 1<<31)
	b = binary.AppendUvarint(b, 1)
	return append(b, make([]byte, 24-len(b))...)
}

func mustEncode(tb testing.TB, b *ingest.Batch) []byte {
	tb.Helper()
	data, err := b.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzIngestRecord fuzzes the binary batch codec: decoding arbitrary bytes
// must never panic, anything DecodeBatch accepts must pass Validate and be a
// fixed point of encode∘decode (the re-encoding decodes to a deep-equal
// batch and re-encodes to the same bytes), and materialization of an
// accepted batch against a real schema must either succeed or fail with an
// error — never corrupt state. Seeds come from the datagen-backed source, so
// the corpus starts from batches shaped like real ingest traffic, plus the
// codec's edge cases.
func FuzzIngestRecord(f *testing.F) {
	src, err := ingest.NewSource(2000, 7)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b, err := src.Next(3 + i*5)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mustEncode(f, b))
	}
	f.Add(mustEncode(f, oneRow()))
	f.Add(mustEncode(f, awkwardFloats()))
	f.Add(mustEncode(f, wideDict()))
	f.Add(hugeClaim())
	// Awkward shapes: nothing, a JSON document, a truncated batch, a
	// trailing byte, a NaN, and a dictionary value the rows never use.
	f.Add([]byte{})
	f.Add([]byte(`{"table":"flights","rows":[["AA",1]]}`))
	whole := mustEncode(f, oneRow())
	f.Add(whole[:len(whole)-1])
	f.Add(append(bytes.Clone(whole), 0))
	nan := awkwardFloats()
	nan.Columns[0].Nums[1] = math.NaN()
	f.Add(nan.AppendBinary(nil))
	unused := oneRow()
	unused.Columns[0].Dict = append(unused.Columns[0].Dict, "never")
	f.Add(unused.AppendBinary(nil))

	db := fuzzDB(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ingest.DecodeBatch(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("decoded batch fails Validate: %v", err)
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted batch failed to encode: %v", err)
		}
		b2, err := ingest.DecodeBatch(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("decode→encode→decode changed the batch:\n was: %#v\n now: %#v", b, b2)
		}
		if enc2 := b2.AppendBinary(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n was: %x\n now: %x", enc, enc2)
		}
		// Materialization must not panic on any accepted batch; it may
		// reject (wrong table, arity, kinds, FK range).
		if rows, err := ingest.Materialize(db, b); err == nil {
			if rows.NumRows() != b.NumRows() {
				t.Fatalf("materialized %d rows from a %d-row batch", rows.NumRows(), b.NumRows())
			}
		}
	})
}

// TestBatchEncodingCanonical: equal rows have one encoding. A dictionary
// that lists a value the rows never use, lists values out of first-use order
// or lists one twice is refused by Validate and by the decoder, and two
// inputs that decode to the same batch — here one spelling a count as a
// non-minimal varint — re-encode identically.
func TestBatchEncodingCanonical(t *testing.T) {
	for name, edit := range map[string]func(c *ingest.Column){
		"unused value":    func(c *ingest.Column) { c.Dict = append(c.Dict, "never") },
		"out of order":    func(c *ingest.Column) { c.Codes[0], c.Codes[1] = 1, 0 },
		"duplicate value": func(c *ingest.Column) { c.Dict[1] = c.Dict[0] },
	} {
		b := &ingest.Batch{Table: "t", Columns: []ingest.Column{
			{Kind: dataset.Nominal, Dict: []string{"x", "y"}, Codes: []uint32{0, 1, 0}},
		}}
		edit(&b.Columns[0])
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, err := ingest.DecodeBatch(b.AppendBinary(nil)); err == nil {
			t.Errorf("%s: the decoder accepted it", name)
		}
	}

	a := mustEncode(t, oneRow())
	// The table name's length, 7, spelled in two bytes.
	long := append([]byte{a[0], 0x87, 0x00}, a[2:]...)
	b, err := ingest.DecodeBatch(long)
	if err != nil {
		t.Fatal(err)
	}
	if eb := mustEncode(t, b); !bytes.Equal(a, eb) {
		t.Fatalf("equivalent inputs encode differently:\n %x\n %x", a, eb)
	}
}

// TestDecodeBatchContract pins the decoder's edges: -0 and subnormals keep
// their bit patterns, NaN and ±Inf are refused as the JSON codec refused
// them, another format is named rather than called damage, and no decoded
// byte aliases the input.
func TestDecodeBatchContract(t *testing.T) {
	in := awkwardFloats()
	data := mustEncode(t, in)
	out, err := ingest.DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Columns[0].Nums {
		if got := out.Columns[0].Nums[i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("value %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(v))
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := awkwardFloats()
		b.Columns[0].Nums[2] = bad
		if err := b.Validate(); err == nil {
			t.Errorf("Validate accepted %v", bad)
		}
		if _, err := ingest.DecodeBatch(b.AppendBinary(nil)); err == nil {
			t.Errorf("the decoder accepted %v", bad)
		}
	}

	for name, data := range map[string][]byte{
		"JSON":      []byte(`{"table":"flights","rows":[["AA",1]]}`),
		"other tag": {0x31, 1, 't'},
	} {
		if _, err := ingest.DecodeBatch(data); !errors.Is(err, ingest.ErrFormat) {
			t.Errorf("%s: error %v does not name a format", name, err)
		}
	}
	whole := mustEncode(t, oneRow())
	if _, err := ingest.DecodeBatch(whole[:len(whole)-1]); err == nil || errors.Is(err, ingest.ErrFormat) {
		t.Errorf("truncated batch: error %v, want damage, not another format", err)
	}

	wide := mustEncode(t, wideDict())
	b, err := ingest.DecodeBatch(wide)
	if err != nil {
		t.Fatal(err)
	}
	clear(wide)
	if b.Table != "flights" || b.Columns[0].Dict[299] != "airport-299" {
		t.Fatalf("decoded batch aliases its input: table %q, last value %q", b.Table, b.Columns[0].Dict[299])
	}
}

// TestDecodeBatchHostile: every strict prefix of a valid batch is refused,
// and a 24-byte input announcing 2^31 rows is refused before any slab is
// sized from it.
func TestDecodeBatchHostile(t *testing.T) {
	valid := mustEncode(t, wideDict())
	for n := 0; n < len(valid); n++ {
		if _, err := ingest.DecodeBatch(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(valid))
		}
	}
	huge := hugeClaim()
	if len(huge) > 24 {
		t.Fatalf("hostile input is %d bytes", len(huge))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ingest.DecodeBatch(huge); err == nil {
		t.Fatal("a 2^31-row claim decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("refusing a 2^31-row claim allocated %d bytes", grew)
	}
}
