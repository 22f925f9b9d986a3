package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// benchDB builds the benchmark fact table: benchRows flights with a
// 12-carrier nominal column and two quantitative columns, the column mix the
// paper's dashboard workloads scan.
const benchRows = 1 << 18

func benchDB(b *testing.B) *dataset.Database {
	return benchTable(b, func(rng *rand.Rand) int { return rng.Intn(12) })
}

// benchTable is benchDB with the carrier of each row drawn by carrier.
func benchTable(b *testing.B, carrier func(*rand.Rand) int) *dataset.Database {
	b.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "distance", Kind: dataset.Quantitative},
		{Name: "delay", Kind: dataset.Quantitative},
	})
	rng := rand.New(rand.NewSource(42))
	tb := dataset.NewBuilder("flights", schema, benchRows)
	for i := 0; i < benchRows; i++ {
		tb.AppendString(0, fmt.Sprintf("C%d", carrier(rng)))
		tb.AppendNum(1, rng.Float64()*3000)
		tb.AppendNum(2, rng.NormFloat64()*30)
	}
	fact, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return &dataset.Database{Fact: fact}
}

// benchPlans compiles q three ways: the scalar baseline (row-at-a-time
// closures into a key-indexed table), the batch pipeline over a key-indexed
// table (what a plan without a bounded key domain runs), and the batch
// pipeline over the dense table.
func benchPlans(b *testing.B, db *dataset.Database, q *query.Query) (scalar, vecMap, vecDense *Compiled) {
	b.Helper()
	compile := func() *Compiled {
		p, err := Compile(db, q)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	scalar, vecMap, vecDense = compile(), compile(), compile()
	scalar.disableDense()
	vecMap.disableDense()
	return
}

func runScanBench(b *testing.B, plan *Compiled, scalar bool) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(plan.NumRows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := NewGroupState(plan)
		if scalar {
			gs.ScanRangeScalar(0, plan.NumRows)
		} else {
			gs.ScanRange(0, plan.NumRows)
		}
		if gs.NumGroups() == 0 && plan.NumRows > 0 && len(plan.predKern) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkScanCountByNominal is the COUNT(*) GROUP BY carrier shape — the
// most common dashboard query. bytes/s counts rows/s (SetBytes(rows)).
func BenchmarkScanCountByNominal(b *testing.B) {
	db := benchDB(b)
	q := &query.Query{
		VizName: "v", Table: "flights",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	scalar, vecMap, vecDense := benchPlans(b, db, q)
	b.Run("scalar", func(b *testing.B) { runScanBench(b, scalar, true) })
	b.Run("vec_map", func(b *testing.B) { runScanBench(b, vecMap, false) })
	b.Run("vec_dense", func(b *testing.B) { runScanBench(b, vecDense, false) })
}

// BenchmarkScanFilteredSum is the filtered SUM shape: range predicate on one
// quantitative column, SUM of another, grouped by carrier.
func BenchmarkScanFilteredSum(b *testing.B) {
	db := benchDB(b)
	q := &query.Query{
		VizName: "v", Table: "flights",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Sum, Field: "delay"}},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "distance", Op: query.OpRange, Lo: 500, Hi: 1500},
		}},
	}
	scalar, vecMap, vecDense := benchPlans(b, db, q)
	b.Run("scalar", func(b *testing.B) { runScanBench(b, scalar, true) })
	b.Run("vec_map", func(b *testing.B) { runScanBench(b, vecMap, false) })
	b.Run("vec_dense", func(b *testing.B) { runScanBench(b, vecDense, false) })
}

// BenchmarkScanQuantBin2D is the binned-heatmap shape: 2D quantitative
// binning with AVG, no filter.
func BenchmarkScanQuantBin2D(b *testing.B) {
	db := benchDB(b)
	q := &query.Query{
		VizName: "v", Table: "flights",
		Bins: []query.Binning{
			{Field: "distance", Kind: dataset.Quantitative, Width: 100},
			{Field: "delay", Kind: dataset.Quantitative, Width: 20},
		},
		Aggs: []query.Aggregate{{Func: query.Avg, Field: "delay"}},
	}
	scalar, vecMap, vecDense := benchPlans(b, db, q)
	b.Run("scalar", func(b *testing.B) { runScanBench(b, scalar, true) })
	b.Run("vec_map", func(b *testing.B) { runScanBench(b, vecMap, false) })
	b.Run("vec_dense", func(b *testing.B) { runScanBench(b, vecDense, false) })
}

// BenchmarkScanRowsPermuted is the progressive engines' access pattern: an
// explicit permuted row list with a single-value IN selection, the query
// shape cross-viz brushing produces.
func BenchmarkScanRowsPermuted(b *testing.B) {
	db := benchDB(b)
	q := &query.Query{
		VizName: "v", Table: "flights",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "carrier", Op: query.OpIn, Values: []string{"C3"}},
		}},
	}
	rng := rand.New(rand.NewSource(7))
	perm := make([]uint32, benchRows)
	for i, p := range rng.Perm(benchRows) {
		perm[i] = uint32(p)
	}
	scalar, _, vecDense := benchPlans(b, db, q)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			gs := NewGroupState(scalar)
			gs.ScanRowsScalar(perm)
		}
	})
	b.Run("vec_dense", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			gs := NewGroupState(vecDense)
			gs.ScanRows(perm)
		}
	})
}

// BenchmarkScanQuantBin1D is the histogram shape — every new viz's first
// query — and the code-vs-arithmetic ablation: distance spans 0..3000, so a
// width of 120 plans 25 bins and reads the derived code column (codeBin),
// while a width of 7.5 plans 400, past a code byte's 256 slots, and computes
// each index from the value (quantDirectBin). Same column, same table kind,
// COUNT and AVG, unfiltered (slotsRange) and behind a 10%-selective range
// predicate on the other column (slotsSel).
func BenchmarkScanQuantBin1D(b *testing.B) {
	db := benchDB(b)
	for _, agg := range []struct {
		name string
		aggs []query.Aggregate
	}{
		{"count", []query.Aggregate{{Func: query.Count}}},
		{"avg", []query.Aggregate{{Func: query.Avg, Field: "delay"}}},
	} {
		for _, filter := range []struct {
			name  string
			preds []query.Predicate
		}{
			{"all", nil},
			// delay is N(0, 30): [38.4, +inf) keeps the upper 10%.
			{"sel10", []query.Predicate{{Field: "delay", Op: query.OpRange, Lo: 38.4, Hi: 1e9}}},
		} {
			for _, bins := range []struct {
				name  string
				width float64
				codes bool
			}{
				{"code25", 120, true},
				{"arith400", 7.5, false},
			} {
				plan, err := Compile(db, &query.Query{
					VizName: "v", Table: "flights",
					Bins:   []query.Binning{{Field: "distance", Kind: dataset.Quantitative, Width: bins.width}},
					Aggs:   agg.aggs,
					Filter: query.Filter{Predicates: filter.preds},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := plan.binKern[0].(codeBin); ok != bins.codes {
					b.Fatalf("%s: kernel is %T", bins.name, plan.binKern[0])
				}
				b.Run(agg.name+"/"+filter.name+"/"+bins.name, func(b *testing.B) { runScanBench(b, plan, false) })
			}
		}
	}
}

// BenchmarkScanSkewed runs the two shapes whose per-row cost is the fold
// itself rather than the predicate: AVG grouped by a 12-carrier nominal with
// ~60% of rows in one carrier, so most rows extend one bin's serial
// dependency chain, and an unfiltered 2-D COUNT over two derived code
// columns (distance at width 120, 25 bins; delay at width 20, ~15 bins),
// where slot computation is all the work.
func BenchmarkScanSkewed(b *testing.B) {
	db := benchTable(b, func(rng *rand.Rand) int {
		if rng.Float64() < 0.6 {
			return 0
		}
		return 1 + rng.Intn(11)
	})
	for _, c := range []struct {
		name string
		q    *query.Query
	}{
		{"avg_by_carrier", &query.Query{
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "delay"}}}},
		{"count_2d_codes", &query.Query{
			Bins: []query.Binning{
				{Field: "distance", Kind: dataset.Quantitative, Width: 120},
				{Field: "delay", Kind: dataset.Quantitative, Width: 20}},
			Aggs: []query.Aggregate{{Func: query.Count}}}},
	} {
		c.q.VizName, c.q.Table = "v", "flights"
		plan, err := Compile(db, c.q)
		if err != nil {
			b.Fatal(err)
		}
		if plan.geom.slots() == 0 {
			b.Fatalf("%s: want a dense plan", c.name)
		}
		for d, k := range plan.binKern {
			if _, ok := k.(codeBin); !ok && c.q.Bins[d].Kind == dataset.Quantitative {
				b.Fatalf("%s: dimension %d runs %T, want the code kernel", c.name, d, k)
			}
		}
		b.Run(c.name, func(b *testing.B) { runScanBench(b, plan, false) })
	}
}

// BenchmarkScanBlockOrder is the filtered COUNT by carrier behind a range on
// distance (uniform on 0..3000) at 5%, 25% and 60% selectivity, three ways:
// scan tests every row (the plan without a block selector), cold builds every
// block's order as it goes (a fresh column lineage per iteration), warm finds
// each block's passing rows in orders already built.
func BenchmarkScanBlockOrder(b *testing.B) {
	db := benchDB(b)
	for _, sel := range []struct {
		name   string
		lo, hi float64
	}{
		{"sel05", 1000, 1150},
		{"sel25", 1000, 1750},
		{"sel60", 500, 2300},
	} {
		q := &query.Query{VizName: "v", Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "distance", Op: query.OpRange, Lo: sel.lo, Hi: sel.hi}}}}
		compile := func(db *dataset.Database) *Compiled {
			plan, err := Compile(db, q)
			if err != nil {
				b.Fatal(err)
			}
			return plan
		}
		b.Run(sel.name+"/scan", func(b *testing.B) {
			plan := compile(db)
			plan.blockSel = nil
			runScanBench(b, plan, false)
		})
		b.Run(sel.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(benchRows)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan := compile(freshLineage(b, db))
				b.StartTimer()
				NewGroupState(plan).ScanRange(0, plan.NumRows)
			}
		})
		b.Run(sel.name+"/warm", func(b *testing.B) {
			plan := compile(db)
			NewGroupState(plan).ScanRange(0, plan.NumRows)
			runScanBench(b, plan, false)
		})
	}
}

// freshLineage returns db's fact table over new columns sharing its
// storage, so no memo built through db serves it.
func freshLineage(b *testing.B, db *dataset.Database) *dataset.Database {
	b.Helper()
	t := db.Fact
	cols := make([]*dataset.Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = &dataset.Column{Field: c.Field, Nums: c.Nums, Codes: c.Codes, Dict: c.Dict}
	}
	fact, err := dataset.NewTable(t.Name, t.Schema, cols)
	if err != nil {
		b.Fatal(err)
	}
	return &dataset.Database{Fact: fact}
}

// BenchmarkScanBlockTables prices the block-table stages (README.md, "Block
// tables") per block of BatchRows rows, for a 1-D and a 2-D AVG: fold runs
// the row fold (ScanRange), record folds every block into a fresh record of
// the shape and merges the table it keeps (a cold scan), merge merges every
// block from tables already recorded.
func BenchmarkScanBlockTables(b *testing.B) {
	db := benchDB(b)
	byCarrier := query.Binning{Field: "carrier", Kind: dataset.Nominal}
	for _, c := range []struct {
		name string
		bins []query.Binning
	}{
		{"avg_1d", []query.Binning{byCarrier}},
		{"avg_2d", []query.Binning{byCarrier, {Field: "distance", Kind: dataset.Quantitative, Width: 1000}}},
	} {
		plan, err := Compile(db, &query.Query{VizName: "v", Table: "flights", Bins: c.bins,
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "delay"}}})
		if err != nil {
			b.Fatal(err)
		}
		recorded := NewBlocks(plan, nil)
		if NewGroupState(plan).ScanRangeReusing(0, plan.NumRows, recorded, nil); NewGroupState(plan).ScanRangeReusing(0, plan.NumRows, recorded, nil) != plan.NumRows {
			b.Fatalf("%s: some block kept no table", c.name)
		}
		for _, stage := range []string{"fold", "record", "merge"} {
			b.Run(c.name+"/"+stage, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gs := NewGroupState(plan)
					switch stage {
					case "fold":
						gs.ScanRange(0, plan.NumRows)
					case "record":
						gs.ScanRangeReusing(0, plan.NumRows, NewBlocks(plan, nil), nil)
					case "merge":
						gs.ScanRangeReusing(0, plan.NumRows, recorded, nil)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(plan.NumRows/BatchRows), "ns/block")
			})
		}
	}
}
