package idebench

// Ablation benchmarks for four design choices: the progressive engine's
// chunk size (snapshot/cancellation granularity vs. scan throughput), the
// online engine's tuple overhead calibration, the exactdb worker count, and
// how a quantitative dimension is binned — a memoized code byte per row
// against arithmetic on the value — as the bin count crosses the 256 slots a
// code byte addresses.

import (
	"fmt"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/engine/progressive"
	"idebench/internal/enginetest"
	"idebench/internal/query"
)

// BenchmarkAblationProgressiveChunkSize measures how the progressive
// engine's chunk size trades scan throughput against poll granularity.
func BenchmarkAblationProgressiveChunkSize(b *testing.B) {
	db := enginetest.SmallDB(200_000, 1)
	for _, chunk := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			e := progressive.New(progressive.Config{ChunkRows: chunk})
			if err := e.Prepare(db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.WorkflowStart()
				h, err := e.StartQuery(enginetest.CountByCarrier())
				if err != nil {
					b.Fatal(err)
				}
				<-h.Done()
			}
			b.ReportMetric(float64(db.NumRows())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkAblationExactdbWorkers measures the blocking engine's parallel
// scan across worker counts (on a multi-core host the scaling is visible;
// on one core it quantifies the goroutine overhead).
func BenchmarkAblationExactdbWorkers(b *testing.B) {
	db := enginetest.SmallDB(200_000, 2)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p%d", workers), func(b *testing.B) {
			e := exactdb.New()
			if err := e.Prepare(db, engine.Options{Parallelism: workers}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := e.StartQuery(enginetest.AvgDelayByDistance())
				if err != nil {
					b.Fatal(err)
				}
				<-h.Done()
			}
		})
	}
}

// BenchmarkAblationGroupByWidth measures the group-by kernel across bin
// counts — the paper's Exp. 4 found bin count has no significant effect;
// this quantifies our substrate's sensitivity. Every plan here has a dense
// table; what changes between 100 and 400 bins is the bin kernel: 5, 25 and
// 100 bins read the column's derived bin codes (engine codeBin), 400 bins
// are past a code byte and compute each index from the value
// (quantDirectBin). It is the code-vs-arithmetic ablation.
func BenchmarkAblationGroupByWidth(b *testing.B) {
	db, err := core.BuildData(100_000, false, 3)
	if err != nil {
		b.Fatal(err)
	}
	col := db.Fact.Column("dep_delay")
	lo, hi := col.Nums[0], col.Nums[0]
	for _, v := range col.Nums {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for _, bins := range []int{5, 25, 100, 400} {
		b.Run(fmt.Sprintf("bins%d", bins), func(b *testing.B) {
			q := &query.Query{
				VizName: "v", Table: "flights",
				Bins: []query.Binning{{
					Field: "dep_delay", Kind: dataset.Quantitative,
					Width: (hi - lo) / float64(bins), Origin: lo,
				}},
				Aggs: []query.Aggregate{{Func: query.Count}},
			}
			plan, err := engine.Compile(db, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gs := engine.NewGroupState(plan)
				gs.ScanRange(0, plan.NumRows)
			}
			b.ReportMetric(float64(plan.NumRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkAblationFilterSelectivity quantifies the paper's Exp.-4 finding
// that filter specificity is the dominant per-query cost factor: matching
// rows pay the group-by, skipped rows only the predicate.
func BenchmarkAblationFilterSelectivity(b *testing.B) {
	db, err := core.BuildData(100_000, false, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range []struct {
		name   string
		lo, hi float64
	}{
		{"match_all", -1e12, 1e12},
		{"match_half", 0, 700},    // ~median distance split
		{"match_few", 2400, 1e12}, // long-haul tail
	} {
		b.Run(sel.name, func(b *testing.B) {
			q := &query.Query{
				VizName: "v", Table: "flights",
				Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
				Aggs: []query.Aggregate{{Func: query.Avg, Field: "arr_delay"}},
				Filter: query.Filter{Predicates: []query.Predicate{
					{Field: "distance", Op: query.OpRange, Lo: sel.lo, Hi: sel.hi},
				}},
			}
			plan, err := engine.Compile(db, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gs := engine.NewGroupState(plan)
				gs.ScanRange(0, plan.NumRows)
			}
		})
	}
}

// BenchmarkAblationSpeculationOverhead measures the idle cost of enabling
// speculation when no link exists (should be ~free thanks to foreground
// yielding).
func BenchmarkAblationSpeculationOverhead(b *testing.B) {
	db := enginetest.SmallDB(100_000, 5)
	for _, speculate := range []bool{false, true} {
		b.Run(fmt.Sprintf("speculate=%v", speculate), func(b *testing.B) {
			e := progressive.New(progressive.Config{Speculate: speculate})
			if err := e.Prepare(db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.WorkflowStart()
				h, err := e.StartQuery(enginetest.CountByCarrier())
				if err != nil {
					b.Fatal(err)
				}
				<-h.Done()
			}
			e.WorkflowEnd()
			_ = time.Now()
		})
	}
}
