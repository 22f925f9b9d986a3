package dataset

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// floorCoder is the tests' BinCoder: plain floor division, the definition
// the engine's branch-free binIdx is pinned to.
func floorCoder(dst []uint8, src []float64, width, origin float64, base int64) bool {
	ok := true
	for i, v := range src {
		d := int64(math.Floor((v-origin)/width)) - base
		ok = ok && d >= 0 && d < 256
		dst[i] = uint8(d)
	}
	return ok
}

// binRange is the [lo, hi] a caller passes: the bin indices of the bounds.
func binRange(t *testing.T, c *Column, width, origin float64) (lo, hi int64) {
	t.Helper()
	mn, mx, ok := c.MinMax()
	if !ok {
		t.Fatal("column has no bounds")
	}
	return int64(math.Floor((mn - origin) / width)), int64(math.Floor((mx - origin) / width))
}

func quantColumn(vals ...float64) *Column {
	return &Column{Field: Field{Name: "x", Kind: Quantitative}, Nums: vals}
}

func TestBinCodesBuildOnceAndDecode(t *testing.T) {
	c := quantColumn(-7.5, 0, 3, 9.99, 10, 42, -0.0001)
	lo, hi := binRange(t, c, 10, 0)
	codes, base, ok := c.BinCodes(10, 0, lo, hi, floorCoder, true)
	if !ok || len(codes) != c.Len() {
		t.Fatalf("ok=%v, %d codes for %d rows", ok, len(codes), c.Len())
	}
	for i, v := range c.Nums {
		if got, want := int64(codes[i])+base, int64(math.Floor(v/10)); got != want {
			t.Fatalf("row %d (%v): code+base = %d, want bin %d", i, v, got, want)
		}
	}
	// The planned domain sits in the middle of the byte.
	if below, above := lo-base, base+255-hi; below < 120 || above < 120 {
		t.Fatalf("headroom %d below, %d above a %d-bin domain", below, above, hi-lo+1)
	}
	again, base2, ok := c.BinCodes(10, 0, lo, hi, floorCoder, true)
	if !ok || base2 != base || &again[0] != &codes[0] {
		t.Fatal("second call did not return the memoized codes")
	}
	if got := c.BinCodeBuilds(); got != 1 {
		t.Fatalf("%d builds, want 1", got)
	}
}

func TestBinCodesRefusals(t *testing.T) {
	c := quantColumn(0, 1000)
	if _, _, ok := c.BinCodes(1, 0, 0, 1000, floorCoder, true); ok {
		t.Fatal("a 1001-bin domain got a code column")
	}
	if _, _, ok := c.BinCodes(10, 0, 0, 100, floorCoder, false); ok {
		t.Fatal("build=false built a missing binning")
	}
	if _, _, ok := c.BinCodes(10, 0, 5, 4, floorCoder, true); ok {
		t.Fatal("an empty domain got a code column")
	}
	if _, _, ok := c.BinCodes(10, 0, math.MinInt64+1, math.MaxInt64-1, floorCoder, true); ok {
		t.Fatal("a domain whose span wraps int64 got a code column")
	}
	if got := c.BinCodeBuilds(); got != 0 {
		t.Fatalf("%d builds by refused calls", got)
	}
	nominal := &Column{Field: Field{Name: "n", Kind: Nominal}, Codes: []uint32{0}, Dict: NewDict()}
	if _, _, ok := nominal.BinCodes(1, 0, 0, 0, floorCoder, true); ok {
		t.Fatal("a nominal column got bin codes")
	}
	// The cap: four distinct binnings, then no more — and no storage for the
	// fifth.
	for i, width := range []float64{100, 50, 25, 20, 10} {
		lo, hi := binRange(t, c, width, 0)
		if _, _, ok := c.BinCodes(width, 0, lo, hi, floorCoder, true); ok != (i < maxBinCodings) {
			t.Fatalf("binning %d: ok=%v", i+1, ok)
		}
	}
	if got := c.BinCodeBuilds(); got != maxBinCodings {
		t.Fatalf("%d builds, want %d", got, maxBinCodings)
	}
}

func TestBinCodesDroppedByInPlaceMutation(t *testing.T) {
	c := quantColumn(1, 2, 3)
	if _, _, ok := c.BinCodes(1, 0, 1, 3, floorCoder, true); !ok {
		t.Fatal("no codes")
	}
	c.AppendNum(500) // in place: bounds memo and codes are both stale
	lo, hi := binRange(t, c, 1, 0)
	if _, _, ok := c.BinCodes(1, 0, lo, hi, floorCoder, true); ok {
		t.Fatal("a 500-bin domain got a code column")
	}
	lo, hi = binRange(t, c, 10, 0)
	codes, base, ok := c.BinCodes(10, 0, lo, hi, floorCoder, true)
	if !ok || len(codes) != 4 || int64(codes[3])+base != 50 {
		t.Fatalf("after the mutation: ok=%v codes=%v base=%d", ok, codes, base)
	}
}

// TestBinCodesConcurrentViews extends one lineage's codes from many views at
// once (run under -race): whatever order the extensions land in, every view
// reads its own rows' codes.
func TestBinCodesConcurrentViews(t *testing.T) {
	base := buildSmall(t, 64)
	app := NewTableAppender(base, true)
	views := []*Table{base}
	for i := 0; i < 40; i++ {
		v, err := app.Append(makeBatch(t, base, []string{"AA", "UA"}, []float64{float64(i), float64(-i)}))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	var wg sync.WaitGroup
	for _, v := range views {
		for _, width := range []float64{5, 2} {
			wg.Add(1)
			go func(v *Table, width float64) {
				defer wg.Done()
				c := v.Column("delay")
				mn, mx, _ := c.MinMax()
				lo, hi := int64(math.Floor(mn/width)), int64(math.Floor(mx/width))
				codes, base, ok := c.BinCodes(width, 0, lo, hi, floorCoder, true)
				if !ok || len(codes) != v.NumRows() {
					t.Errorf("view of %d rows: ok=%v, %d codes", v.NumRows(), ok, len(codes))
					return
				}
				for i, x := range c.Nums {
					if int64(codes[i])+base != int64(math.Floor(x/width)) {
						t.Errorf("view of %d rows, width %v, row %d: wrong code", v.NumRows(), width, i)
						return
					}
				}
			}(v, width)
		}
	}
	wg.Wait()
	if got := app.View().Column("delay").BinCodeBuilds(); got != 2 {
		t.Fatalf("%d builds for two binnings", got)
	}
}

// TestTableCodecIgnoresBinCodes: derived storage never reaches the encoding —
// a table encodes to the same bytes with memos present as without, and a
// decoded table starts with none.
func TestTableCodecIgnoresBinCodes(t *testing.T) {
	tb := codecTestTable(t)
	before := EncodeTable(tb)
	built := 0
	for _, c := range tb.Columns {
		if c.Field.Kind != Quantitative {
			continue
		}
		if mn, mx, ok := c.MinMax(); ok {
			lo, hi := int64(math.Floor(mn/1e6)), int64(math.Floor(mx/1e6))
			if _, _, ok := c.BinCodes(1e6, 0, lo, hi, floorCoder, true); ok {
				built++
			}
		}
	}
	if built == 0 {
		t.Fatal("fixture built no code column")
	}
	after := EncodeTable(tb)
	if !bytes.Equal(before, after) {
		t.Fatal("bin-code memos changed the table's encoding")
	}
	dec, err := DecodeTable(after)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Columns {
		if c.BinCodeBuilds() != 0 {
			t.Fatalf("decoded column %q carries bin codes", c.Field.Name)
		}
	}
}
