//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package sharedscan

import (
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// TestTakeLockedSteadyStateAllocs: a claim runs under the scheduler lock
// every worker takes for its next claim, so once the worker's span buffer
// and the consumer's range list have their capacity it must not allocate —
// the split that grows the list by one range included.
func TestTakeLockedSteadyStateAllocs(t *testing.T) {
	const rows, block = 1 << 20, dataset.BlockRows
	c := &Consumer{needed: make([]span, 0, 4)}
	buf := make([]span, 0, 8)
	pos := 0
	allocs := testing.AllocsPerRun(100, func() {
		if len(c.needed) == 0 {
			c.needed = append(c.needed, span{0, rows})
			pos = 10 * block // attach mid-table: the first claim splits the range
		}
		buf = c.takeLocked(pos, pos+block, buf[:0])
		if len(buf) != 1 {
			t.Fatalf("claimed %v from the block at %d", buf, pos)
		}
		pos = (pos + block) % rows
	})
	if allocs != 0 {
		t.Errorf("%v allocations per steady-state claim, want 0", allocs)
	}
}

// TestBlockLookupAllocs: every shard that binds a plan looks its shape up in
// the block registry, so a lookup of a shape already recorded, 1-D or 2-D,
// must not allocate — the key is built in a stack buffer.
func TestBlockLookupAllocs(t *testing.T) {
	f := newBlockFixture(t, 2*dataset.BlockRows, rand.New(rand.NewSource(3)))
	aggs := []query.Aggregate{{Func: query.Avg, Field: "val"}, {Func: query.Max, Field: "ival"}}
	for name, bins := range map[string][]query.Binning{
		"1-D": {{Field: "cat", Kind: dataset.Nominal}},
		"2-D": {{Field: "cat", Kind: dataset.Nominal}, {Field: "ival", Kind: dataset.Quantitative, Width: 100}},
	} {
		plan, err := engine.Compile(f.db, &query.Query{VizName: "v", Table: "tbl", Bins: bins, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		var r blockRegistry
		b := r.lookup(plan)
		if b == nil {
			t.Fatalf("%s: no block tables for an unfiltered dense plan", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if r.lookup(plan) != b {
				t.Fatalf("%s: the lookup returned another shape's tables", name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per registry hit, want 0", name, allocs)
		}
	}
}
