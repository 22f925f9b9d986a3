//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package sharedscan

import "testing"

// TestTakeLockedSteadyStateAllocs: a claim runs under the scheduler lock
// every worker needs for its next chunk, so once the worker's span buffer
// and the consumer's range list have their capacity it must not allocate —
// the split that grows the list by one range included.
func TestTakeLockedSteadyStateAllocs(t *testing.T) {
	const rows, chunk = 1 << 20, 4096
	c := &Consumer{needed: make([]span, 0, 4)}
	buf := make([]span, 0, 8)
	pos := 0
	allocs := testing.AllocsPerRun(100, func() {
		if len(c.needed) == 0 {
			c.needed = append(c.needed, span{0, rows})
			pos = 10 * chunk // attach mid-table: the first claim splits the range
		}
		buf = c.takeLocked(pos, pos+chunk, buf[:0])
		if len(buf) != 1 {
			t.Fatalf("claimed %v from chunk at %d", buf, pos)
		}
		pos = (pos + chunk) % rows
	})
	if allocs != 0 {
		t.Errorf("%v allocations per steady-state claim, want 0", allocs)
	}
}
