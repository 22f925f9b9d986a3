package idebench

// One benchmark per table and figure of the paper's evaluation section.
// Each bench executes a reduced-size configuration of the corresponding
// experiment (the full-size runs are `idebench exp -name <id>`) and reports
// the experiment's headline numbers as custom benchmark metrics, so
// `go test -bench=.` regenerates the shape of every result.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/engine"
	"idebench/internal/experiments"
	"idebench/internal/query"
	"idebench/internal/report"
	"idebench/internal/workflow"
)

// benchCfg is the reduced configuration shared by the experiment benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		Rows:             60_000,
		WorkflowsPerType: 2,
		Interactions:     8,
		TRs:              []time.Duration{2 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond},
		ThinkTime:        time.Millisecond,
		Seed:             1,
		Out:              io.Discard,
	}
}

// reportSeries exposes one summary metric per (driver, tr) pair.
func reportSeries(b *testing.B, rows []report.Summary, metric string, pick func(report.Summary) float64) {
	b.Helper()
	for _, s := range rows {
		name := fmt.Sprintf("%s_%s_tr%gms", metric, s.Key.Driver, s.Key.TimeReqMS)
		b.ReportMetric(pick(s), name)
	}
}

// BenchmarkFig5SummaryReport regenerates the paper's Figure 5: the summary
// report of the mixed workload across engines and time requirements.
func BenchmarkFig5SummaryReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, rows, "viol%", func(s report.Summary) float64 { return s.TRViolatedPct })
		}
	}
}

// BenchmarkFig6aTRViolations regenerates Figure 6a (TR violations vs TR).
func BenchmarkFig6aTRViolations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6a(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, rows, "viol%", func(s report.Summary) float64 { return s.TRViolatedPct })
		}
	}
}

// BenchmarkFig6bMargins regenerates Figure 6b (median relative margins).
func BenchmarkFig6bMargins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6b(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, rows, "margin", func(s report.Summary) float64 {
				if s.MedianMargin != s.MedianMargin { // NaN
					return 0
				}
				return s.MedianMargin
			})
		}
	}
}

// BenchmarkFig6cCosine regenerates Figure 6c (cosine distance vs TR).
func BenchmarkFig6cCosine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6c(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, rows, "cos", func(s report.Summary) float64 {
				if s.MeanCosine != s.MeanCosine {
					return 0
				}
				return s.MeanCosine
			})
		}
	}
}

// BenchmarkFig6dWorkflowTypes regenerates Figure 6d (missing bins by
// workflow type and system).
func BenchmarkFig6dWorkflowTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6d(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range rows {
				b.ReportMetric(s.MissingBinsPct,
					fmt.Sprintf("missing%%_%s_%s", s.Key.Driver, s.Key.WorkflowType))
			}
		}
	}
}

// BenchmarkFig6eNormalized regenerates Figure 6e (Exp. 2: normalized vs
// de-normalized TR violations for the join-capable engines).
func BenchmarkFig6eNormalized(b *testing.B) {
	cfg := benchCfg()
	cfg.Engines = []string{"exactdb", "onlinedb"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6e(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range rows {
				b.ReportMetric(s.TRViolatedPct,
					fmt.Sprintf("viol%%_%s_%s", s.Key.Driver, s.Key.DataSize))
			}
		}
	}
}

// BenchmarkFig6fThinkTime regenerates Figure 6f (Exp. 3: missing bins vs
// think time with speculative execution).
func BenchmarkFig6fThinkTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig6f(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				mode := "base"
				if r.Speculative {
					mode = "spec"
				}
				b.ReportMetric(100*r.MissingBins,
					fmt.Sprintf("missing%%_%s_think%v", mode, r.ThinkTime))
			}
		}
	}
}

// BenchmarkExp4OtherEffects regenerates the Sec. 5.5 factor analysis.
func BenchmarkExp4OtherEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exp4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Factor == report.FactorBinDims {
					b.ReportMetric(r.TRViolatedPct, fmt.Sprintf("viol%%_%s", r.Level))
				}
			}
		}
	}
}

// BenchmarkExp5SystemY regenerates Sec. 5.6 (System Y latency overhead over
// its backend).
func BenchmarkExp5SystemY(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Exp5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.MeanLatencyMS, "latms_"+r.Engine)
			}
		}
	}
}

// BenchmarkDataPreparation regenerates the Sec. 5.2 data preparation times.
func BenchmarkDataPreparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Prep(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(float64(r.PrepTime)/float64(time.Millisecond), "prepms_"+r.Engine)
			}
		}
	}
}

// BenchmarkTable1DetailedReport regenerates the appendix's detailed
// per-query report on the progressive engine.
func BenchmarkTable1DetailedReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(recs)), "queries")
		}
	}
}

// --- ablation micro-benchmarks ----------------------------------------------
// These quantify three design choices: the columnar scan kernel, the copula
// scaler's tuple generation rate, and workload generation.

// BenchmarkScanKernel measures the shared group-by scan kernel all engines
// are built on (rows/op via custom metric).
func BenchmarkScanKernel(b *testing.B) {
	db, err := core.BuildData(200_000, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := core.GenerateWorkflows(db, 1, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := firstQuery(flows)
	if err != nil {
		b.Fatal(err)
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
}

func firstQuery(flows []*workflow.Workflow) (*query.Query, error) {
	g := workflow.NewGraph()
	for _, f := range flows {
		for _, in := range f.Interactions {
			eff, err := g.Apply(in)
			if err != nil {
				return nil, err
			}
			if len(eff.Queries) > 0 {
				return eff.Queries[0], nil
			}
		}
	}
	return nil, fmt.Errorf("no queries generated")
}

// BenchmarkCopulaScaler measures synthetic tuple generation throughput.
func BenchmarkCopulaScaler(b *testing.B) {
	seed, err := datagen.GenerateSeed(10_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scaler, err := datagen.NewScaler(seed, 2)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scaler.Generate(rows, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkWorkloadGenerator measures workflow generation cost.
func BenchmarkWorkloadGenerator(b *testing.B) {
	seed, err := datagen.GenerateSeed(10_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workflow.NewGenerator(seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(workflow.GenConfig{
			Type: workflow.Mixed, Interactions: 18, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
