package dataset

import (
	"bytes"
	"math"
	"testing"
)

// seedLineage is a 7-row append lineage: a 4-row base, then a 3-row batch
// that interns two new dictionary values and carries a NaN.
func seedLineage(t testing.TB) *Table {
	schema := MustSchema([]Field{{Name: "cat", Kind: Nominal}, {Name: "x", Kind: Quantitative}})
	b := NewBuilder("seed", schema, 4)
	for i, c := range []string{"a", "b", "a", "c"} {
		b.AppendString(0, c)
		b.AppendNum(1, float64(i)-1.5)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := NewTableAppender(base, false)
	dict := base.Column("cat").Dict
	batch, err := NewTable("seed", schema, []*Column{
		{Field: schema.Fields[0], Dict: dict, Codes: []uint32{dict.Code("d"), 0, dict.Code("e")}},
		{Field: schema.Fields[1], Nums: []float64{7, math.NaN(), math.Copysign(0, -1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := app.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// encodeSegment encodes rows [from, to) of tb.
func encodeSegment(t testing.TB, tb *Table, from, to int, dictFrom []int) []byte {
	s, err := TableSegment(tb, from, to, dictFrom)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// segmentSeeds returns real segments of the seed lineage: the base, the
// tail (dictionary delta, NaN), a segment whose only column is nominal (a
// dictionary delta and its codes), and an empty one.
func segmentSeeds(t testing.TB) [][]byte {
	view := seedLineage(t)
	dict := view.Column("cat").Dict
	nominal := MustSchema([]Field{{Name: "cat", Kind: Nominal}})
	only, err := NewTable("delta", nominal, []*Column{{Field: nominal.Fields[0], Dict: dict, Codes: view.Column("cat").Codes}})
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		encodeSegment(t, view, 0, 4, nil),
		encodeSegment(t, view, 4, 7, []int{3, 0}),
		encodeSegment(t, only, 4, 7, []int{3}),
		encodeSegment(t, view, 7, 7, []int{5, 0}),
	}
}

// FuzzDecodeSegment fuzzes the checkpoint segment decoder: it must never
// panic on arbitrary bytes, and a segment that decodes must re-encode to
// exactly the bytes it came from.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range segmentSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(append([]byte(nil), tableMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSegment(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("decoded segment failed to encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decode/encode is not a fixed point:\n in: %x\nout: %x", data, buf.Bytes())
		}
	})
}

// TestSegmentLineageLoads: the seed lineage's base and tail load into one
// table equal to the view, bounds included; a tail presented out of order,
// or with its dictionary delta starting anywhere but the lineage's
// dictionary's end, is refused.
func TestSegmentLineageLoads(t *testing.T) {
	seeds := segmentSeeds(t)
	l := NewTableLoader(7)
	for _, s := range seeds[:2] {
		if err := l.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Add(seeds[3]); err != nil {
		t.Fatal(err)
	}
	got, err := l.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 7 || cap(got.Column("x").Nums) != 7 {
		t.Fatalf("loaded %d rows into capacity %d, want 7 into 7", got.NumRows(), cap(got.Column("x").Nums))
	}
	if want := []string{"a", "b", "c", "d", "e"}; !equalStrings(got.Column("cat").Dict.Values(), want) {
		t.Fatalf("dictionary %v, want %v", got.Column("cat").Dict.Values(), want)
	}
	// The tail's NaN froze the appender's bounds at the base's.
	if lo, hi, ok := got.Column("x").MinMax(); ok || lo != -1.5 || hi != 1.5 {
		t.Fatalf("bounds (%v, %v, %v): want the lineage's frozen (-1.5, 1.5, false)", lo, hi, ok)
	}

	if err := NewTableLoader(0).Add(seeds[1]); err == nil {
		t.Fatal("a tail loaded as the first segment of a lineage")
	}
	l2 := NewTableLoader(0)
	if err := l2.Add(seeds[0]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Add(seeds[3]); err == nil {
		t.Fatal("a segment starting past the lineage's end loaded")
	}
	// A tail whose delta skips "d" (code 3) would intern "e" as code 3.
	l3 := NewTableLoader(0)
	if err := l3.Add(seeds[0]); err != nil {
		t.Fatal(err)
	}
	if err := l3.Add(encodeSegment(t, seedLineage(t), 4, 7, []int{4, 0})); err == nil {
		t.Fatal("a dictionary delta starting past the lineage's dictionary loaded")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
