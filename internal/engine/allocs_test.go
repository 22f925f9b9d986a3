//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// TestScanRangeSteadyStateAllocs pins the worker-owned scratch: once a state
// has seen its first batch (table sized, pooled buffers warm), folding
// further 4096-row ranges allocates nothing — on the two-pass 2-D path, on
// the fused one-pass 2-D kernel over range and selection batches, with more
// than one moments column, on a filtered plan both reading its rows from a
// recorded selection and recording them into one, and on range and IN
// filters finding their rows through block orders — built inside the
// measured runs for the blocks not yet scanned, read after.
func TestScanRangeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(t, rng, 8*BatchRows, false)
	nominalByCode := []query.Binning{
		{Field: "cat_a", Kind: dataset.Nominal},
		{Field: "x", Kind: dataset.Quantitative, Width: 50}}
	fused := map[string]bool{"avg_2d": true, "nominal_code_avg_2d": true, "filtered_nominal_code_2d": true}
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
		"nominal_code_avg_2d": {Bins: nominalByCode,
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}}},
		"filtered_nominal_code_2d": {Bins: nominalByCode,
			Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Max, Field: "y"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "y", Op: query.OpRange, Lo: -2500, Hi: 4000}}}},
		"arith_2d": {Bins: []query.Binning{ // ~800 bins of x: past a code byte
			{Field: "x", Kind: dataset.Quantitative, Width: 1},
			{Field: "cat_b", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"sum_avg_1d": {Bins: []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Sum, Field: "y"}, {Func: query.Avg, Field: "x"}}},
		"indexed_in_1d": {Bins: []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "cat_a", Op: query.OpIn, Values: []string{"a0", "a1"}}}}},
	} {
		q.VizName, q.Table = "v", "fact"
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan.geom.slots() == 0 {
			t.Fatalf("%s: expected a dense plan", name)
		}
		if (plan.pairKern != nil) != fused[name] {
			t.Fatalf("%s: pair kernel %T, want fused=%v", name, plan.pairKern, fused[name])
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
		if len(q.Filter.Predicates) == 0 {
			continue
		}
		_, keys := q.SignatureKeys()
		sel := new(Selection)
		sel.Reset(plan.NumRows, keys)
		recording := NewSelectionUse(plan, keys, nil, sel)
		reading := NewSelectionUse(plan, keys, sel, nil)
		gs.ScanRangeReusing(0, plan.NumRows, nil, recording)
		for use, label := range map[*SelectionUse]string{reading: "reading", recording: "recording"} {
			allocs := testing.AllocsPerRun(6, func() {
				lo := batch % 8 * BatchRows
				gs.ScanRangeReusing(lo, lo+BatchRows, nil, use)
				batch++
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocations per steady-state 4096-row ScanRangeReusing %s a selection, want 0", name, allocs, label)
			}
		}
		if reading.RowsServed() == 0 {
			t.Errorf("%s: the reading use served no rows", name)
		}
	}
	for _, field := range []string{"x", "cat_a"} {
		if db.Fact.Column(field).BlockOrder().Builds() != 8 {
			t.Errorf("%s: the filters did not run on block orders", field)
		}
	}
}

// TestScanRangeBlocksSteadyStateAllocs: a scan that merges recorded block
// tables, 1-D or 2-D — whole blocks, and a span with a ragged head and tail
// folded row by row around them — allocates nothing.
func TestScanRangeBlocksSteadyStateAllocs(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(6)), 8*BatchRows, false)
	for name, aggs := range map[string][]query.Aggregate{
		"count":        {{Func: query.Count}},
		"sum_min_max":  {{Func: query.Sum, Field: "y"}, {Func: query.Min, Field: "x"}, {Func: query.Max, Field: "y"}},
		"count_avg_2x": {{Func: query.Count}, {Func: query.Avg, Field: "x"}, {Func: query.Avg, Field: "y"}},
	} {
		for dims, bins := range map[string][]query.Binning{
			"1-D": {{Field: "cat_a", Kind: dataset.Nominal}},
			"2-D": {{Field: "cat_b", Kind: dataset.Nominal}, {Field: "x", Kind: dataset.Quantitative, Width: 200}},
		} {
			scanBlocksAllocs(t, name+" "+dims, db, bins, aggs)
		}
	}
}

// scanBlocksAllocs records every block of one shape, then counts what
// merging them costs.
func scanBlocksAllocs(t *testing.T, name string, db *dataset.Database, bins []query.Binning, aggs []query.Aggregate) {
	t.Helper()
	plan, err := Compile(db, &query.Query{VizName: "v", Table: "fact", Bins: bins, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlocks(plan, nil)
	NewGroupState(plan).ScanRangeReusing(0, plan.NumRows, b, nil)
	gs := NewGroupState(plan)
	gs.ScanRange(0, BatchRows)
	batch := 1
	for _, span := range [][2]int{{0, BatchRows}, {100, 3*BatchRows - 100}} {
		allocs := testing.AllocsPerRun(6, func() {
			lo := batch % 5 * BatchRows
			if gs.ScanRangeReusing(lo+span[0], lo+span[1], b, nil) == 0 {
				t.Fatalf("%s: no recorded block merged", name)
			}
			batch++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per ScanRangeReusing over %v, want 0", name, allocs, span)
		}
	}
}

// TestCompileMemoizedBinningAllocs pins what a plan costs once its binning's
// code column exists: the plan's own closures and kernels, nothing that grows
// with the table. The byte budget is a small fraction of one code column, so
// a Compile that rebuilt or copied one fails it; the same holds for a fifth
// binning on the column, which must get the arithmetic kernel without a code
// column being built and thrown away.
func TestCompileMemoizedBinningAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const rows = 16 * BatchRows
	db := randomDB(t, rng, rows, false)
	hist := func(width float64) *query.Query {
		return &query.Query{VizName: "v", Table: "fact",
			Bins: []query.Binning{{Field: "y", Kind: dataset.Quantitative, Width: width}},
			Aggs: []query.Aggregate{{Func: query.Count}}}
	}
	compileBytes := func(q *query.Query, wantCodes bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := Compile(db, q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plan.binKern[0].(codeBin); ok != wantCodes {
			t.Fatalf("width %v runs %T", q.Bins[0].Width, plan.binKern[0])
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// y spans 10 000: 20 to 100 bins at these widths.
	widths := []float64{500, 400, 250, 100}
	for _, w := range widths {
		if first := compileBytes(hist(w), true); first < rows {
			t.Fatalf("width %v: first compile allocated %d B, less than the %d B code column it builds", w, first, rows)
		}
	}
	for _, w := range widths {
		if again := compileBytes(hist(w), true); again > rows/16 {
			t.Errorf("width %v: memoized compile allocated %d B on a %d-row table", w, again, rows)
		}
	}
	if fifth := compileBytes(hist(200), false); fifth > rows/16 {
		t.Errorf("a fifth binning's compile allocated %d B on a %d-row table", fifth, rows)
	}
}
