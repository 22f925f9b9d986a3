//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package engine

import (
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// TestScanRangeSteadyStateAllocs pins the worker-owned scratch: once a state
// has seen its first batch (table sized, pooled buffers warm), folding
// further 4096-row ranges allocates nothing.
func TestScanRangeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(t, rng, 8*BatchRows, false)
	for name, q := range map[string]*query.Query{
		"count_1d": {Bins: []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"filtered_avg_1d": {Bins: []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "x", Op: query.OpRange, Lo: -50, Hi: 80}}}},
		"avg_2d": {Bins: []query.Binning{
			{Field: "x", Kind: dataset.Quantitative, Width: 50},
			{Field: "y", Kind: dataset.Quantitative, Width: 1000}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}}},
	} {
		q.VizName, q.Table = "v", "fact"
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan.geom.slots() == 0 {
			t.Fatalf("%s: expected a dense plan", name)
		}
		gs := NewGroupState(plan)
		gs.ScanRange(0, BatchRows)
		batch := 1
		allocs := testing.AllocsPerRun(6, func() {
			lo := batch % 8 * BatchRows
			gs.ScanRange(lo, lo+BatchRows)
			batch++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state 4096-row ScanRange, want 0", name, allocs)
		}
	}
}
