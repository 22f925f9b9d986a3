//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package query

import (
	"math/rand"
	"testing"
)

// TestResultBinaryAllocs pins the codec's allocation shape: encoding into a
// buffer with room allocates nothing once the sort scratch is warm, and
// decoding allocates the result's map and its two slabs — a count that does
// not grow with the bins.
func TestResultBinaryAllocs(t *testing.T) {
	for _, bins := range []int{25, 1000} {
		in := randomResult(rand.New(rand.NewSource(int64(bins))), bins, 2, bins > 100, false)
		buf := in.AppendBinary(nil)
		if allocs := testing.AllocsPerRun(20, func() { buf = in.AppendBinary(buf[:0]) }); allocs != 0 {
			t.Errorf("%d bins: %v allocations per warmed encode, want 0", bins, allocs)
		}
		var out Result
		allocs := testing.AllocsPerRun(20, func() {
			if err := out.UnmarshalBinary(buf); err != nil {
				t.Fatal(err)
			}
		})
		// The map header and its bucket array(s), the BinValue slab, the
		// float slab: independent of the bin count.
		if allocs > 8 {
			t.Errorf("%d bins: %v allocations per decode, want at most 8", bins, allocs)
		}
	}
}
