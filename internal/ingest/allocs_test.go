//go:build !race

package ingest_test

import (
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// TestBatchCodecAllocs pins the codec's allocation contract: encoding into a
// reused buffer allocates nothing, and decoding allocates a fixed number of
// objects whatever the row count or dictionary size — the batch, its column
// headers, one float slab, one code slab, one string backing the table name
// and every dictionary value, and the dictionaries' string headers.
func TestBatchCodecAllocs(t *testing.T) {
	src, err := ingest.NewSource(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	var decodeAllocs []float64
	for _, rows := range []int{5, 500, 5000} {
		b, err := src.Next(rows)
		if err != nil {
			t.Fatal(err)
		}
		buf := b.AppendBinary(nil)
		if n := testing.AllocsPerRun(50, func() { buf = b.AppendBinary(buf[:0]) }); n != 0 {
			t.Errorf("%d rows: warm AppendBinary made %v allocations, want 0", rows, n)
		}
		decodeAllocs = append(decodeAllocs, testing.AllocsPerRun(20, func() {
			if _, err := ingest.DecodeBatch(buf); err != nil {
				t.Fatal(err)
			}
		}))
	}
	w := wideDict()
	w.Columns = append(w.Columns, ingest.Column{Kind: dataset.Quantitative, Nums: make([]float64, 300)})
	wide := mustEncode(t, w)
	decodeAllocs = append(decodeAllocs, testing.AllocsPerRun(20, func() {
		if _, err := ingest.DecodeBatch(wide); err != nil {
			t.Fatal(err)
		}
	}))
	for _, n := range decodeAllocs {
		if n != decodeAllocs[0] || n > 6 {
			t.Fatalf("DecodeBatch allocations by shape (5, 500, 5000 rows, 300-value dictionary): %v, want one constant ≤ 6", decodeAllocs)
		}
	}
}

// TestSourceNextAllocs pins the small generation path: a 500-row batch is
// smaller than one generator block, so it is built on the calling goroutine
// and allocates no more than the row-at-a-time generator did — no
// goroutine, channel or block buffer reaches it.
func TestSourceNextAllocs(t *testing.T) {
	src, err := ingest.NewSource(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := src.Next(500); err != nil {
			t.Fatal(err)
		}
	})
	// 87 is the row-at-a-time generator's count, measured before the
	// pipeline existed.
	if n > 87 {
		t.Fatalf("Source.Next(500) made %v allocations, want ≤ 87", n)
	}
}
