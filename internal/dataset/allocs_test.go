//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package dataset

import "testing"

// TestBinCodesLookupAllocs pins the cost of the calls every Compile makes
// after a binning's first: a memoized binning is returned, and a binning past
// the column's cap refused, without allocating — in particular without a
// second code column.
func TestBinCodesLookupAllocs(t *testing.T) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i % 1000)
	}
	c := quantColumn(vals...)
	widths := []float64{100, 50, 25, 20} // the four the column may carry
	for _, w := range widths {
		if _, _, ok := c.BinCodes(w, 0, 0, int64(999/w), floorCoder, true); !ok {
			t.Fatalf("width %v: no codes", w)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.BinCodes(25, 0, 0, 39, floorCoder, true); !ok {
			t.Fatal("memoized binning refused")
		}
	}); n != 0 {
		t.Fatalf("memoized lookup allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.BinCodes(10, 0, 0, 99, floorCoder, true); ok {
			t.Fatal("a fifth binning got a code column")
		}
	}); n != 0 {
		t.Fatalf("refusing a fifth binning allocates %v times", n)
	}
}

// TestSelectRowsAllocs pins the small gather path: 500 rows are below the
// parallel threshold, so SelectRows copies on the calling goroutine and
// allocates what the sequential builder loop did.
func TestSelectRowsAllocs(t *testing.T) {
	tbl := gatherTable(5000, 3, 4)
	rows := make([]uint32, 500)
	for i := range rows {
		rows[i] = uint32(i * 7 % 5000)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := SelectRows(tbl, rows); err != nil {
			t.Fatal(err)
		}
	})
	// 22 is the sequential builder loop's count for this 7-column table,
	// measured before the shared gather existed.
	if n > 22 {
		t.Fatalf("SelectRows of 500 rows made %v allocations, want ≤ 22", n)
	}
}
