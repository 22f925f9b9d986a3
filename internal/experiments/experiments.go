// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. 5) on the scaled-down substrate: Fig. 5 (summary
// report), Fig. 6a–f, the Exp.-4 factor analysis, the Exp.-5 System-Y
// comparison, the data preparation times and the Table-1 detailed report —
// plus the serving-tier sweeps grown on top of it (users, ingest, overload,
// shards, elastic, restart). Fig. 5, Fig. 6a–c and Exp. 4 are views of one
// run of the main experiment, the `overall` entry. Experiments is the index.
package experiments

import (
	"fmt"
	"io"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/report"
	"idebench/internal/workflow"
)

// Config parameterizes an experiment run. The zero value is completed by
// withDefaults to the paper's (scaled) default configuration.
type Config struct {
	// Rows is the fact-table size (default core.SizeM).
	Rows int
	// WorkflowsPerType is the number of workflows per workflow type
	// (default 10, the paper's default configuration).
	WorkflowsPerType int
	// Interactions per workflow (default 18).
	Interactions int
	// TRs is the time-requirement sweep (default core.DefaultTimeRequirements).
	TRs []time.Duration
	// ThinkTime between interactions (default core.DefaultThinkTime; the
	// paper stress-tests with its smallest think time).
	ThinkTime time.Duration
	// Engines to benchmark (default core.EngineNames).
	Engines []string
	// Seed drives data and workload generation.
	Seed int64
	// Out receives the printed report (default: required, callers pass
	// os.Stdout or a buffer).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = core.SizeM
	}
	if c.WorkflowsPerType <= 0 {
		c.WorkflowsPerType = 10
	}
	if c.Interactions <= 0 {
		c.Interactions = 18
	}
	if len(c.TRs) == 0 {
		c.TRs = core.DefaultTimeRequirements()
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = core.DefaultThinkTime
	}
	if len(c.Engines) == 0 {
		c.Engines = append([]string(nil), core.EngineNames...)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Experiment is one named entry of `idebench exp`. Run prints the
// experiment's report to Config.Out and returns an error when the experiment
// could not run or one of its correctness gates failed.
type Experiment struct {
	Name string
	Run  func(Config) error
}

// Experiments lists every experiment, in the order `exp -name all` runs
// them.
var Experiments = []Experiment{
	{"prep", discard(Prep)},
	{"overall", discard(Overall)},
	{"fig6d", discard(Fig6d)},
	{"fig6e", discard(Fig6e)},
	{"fig6f", discard(Fig6f)},
	{"exp5", discard(Exp5)},
	{"table1", discard(Table1)},
	{"users", discard(UserSweep)},
	{"ingest", discard(IngestSweep)},
	{"overload", discard(OverloadSweep)},
	{"shards", discard(ShardSweep)},
	{"elastic", discard(ElasticSweep)},
	{"restart", discard(Restart)},
}

// discard adapts an experiment that also returns its rows to Experiment.Run.
func discard[T any](f func(Config) (T, error)) func(Config) error {
	return func(cfg Config) error {
		_, err := f(cfg)
		return err
	}
}

// engineSettings is the run configuration every experiment starts from: the
// paper's defaults at the given table size, with the configured seed and
// think time.
func engineSettings(cfg Config, rows int) core.Settings {
	s := core.DefaultSettings()
	s.DataSize = rows
	s.Seed = cfg.Seed
	s.ThinkTime = cfg.ThinkTime
	return s
}

// buildWorkload generates the de-normalized dataset at the given size and
// the default workload over it: cfg.WorkflowsPerType workflows of each type.
func buildWorkload(cfg Config, rows int) (*dataset.Database, []*workflow.Workflow, error) {
	db, err := core.BuildData(rows, false, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	flows, err := core.GenerateWorkflows(db, cfg.WorkflowsPerType, cfg.Interactions, cfg.Seed+100)
	if err != nil {
		return nil, nil, err
	}
	return db, flows, nil
}

// OverallResult carries the raw records of the main experiment and the two
// aggregations of them that Fig. 5, Fig. 6a–c and Exp. 4 render.
type OverallResult struct {
	Records []driver.Record
	// Summaries has one row per (engine, TR).
	Summaries []report.Summary
	Effects   []report.EffectRow
}

// RunOverall executes the paper's main experiment (Sec. 5.2): the mixed
// workload on every engine across the TR sweep, fixed data size,
// de-normalized schema.
func RunOverall(cfg Config) (*OverallResult, error) {
	cfg = cfg.withDefaults()
	db, flows, err := buildWorkload(cfg, cfg.Rows)
	if err != nil {
		return nil, err
	}
	mixed := core.MixedOnly(flows)

	res := &OverallResult{}
	for _, name := range cfg.Engines {
		s := engineSettings(cfg, cfg.Rows)
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		for _, tr := range cfg.TRs {
			s.TimeRequirement = tr
			recs, err := p.Run(mixed, s)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s tr=%v: %w", name, tr, err)
			}
			res.Records = append(res.Records, recs...)
		}
	}
	res.Summaries = report.Summarize(res.Records, report.GroupBy{Driver: true, TimeReq: true})
	res.Effects = report.Analyze(res.Records)
	return res, nil
}

// Overall runs the main experiment once and prints its views: the Fig. 5
// summary report (per engine and TR, the TR-violation and missing-bins
// percentages plus the MRE CDF with its area above the curve), the Fig. 6a–c
// series against TR, the out-of-margin share and bias against TR, and the
// Exp.-4 "other effects" factor analysis (Sec. 5.5).
func Overall(cfg Config) (*OverallResult, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Out, "=== Figure 5: summary report (mixed workload) ===")
	if err := report.RenderSummaries(cfg.Out, res.Summaries); err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Out)
	for _, s := range res.Summaries {
		if err := report.RenderCDF(cfg.Out, s, 50, 8); err != nil {
			return nil, err
		}
		fmt.Fprintln(cfg.Out)
	}
	for _, v := range []struct {
		title, metric string
		pick          func(report.Summary) float64
	}{
		{"Figure 6a: TR violations vs time requirement", "tr_violated%",
			func(s report.Summary) float64 { return s.TRViolatedPct }},
		{"Figure 6b: median relative margin vs time requirement", "median_margin",
			func(s report.Summary) float64 { return s.MedianMargin }},
		{"Figure 6c: cosine distance vs time requirement", "mean_cosine",
			func(s report.Summary) float64 { return s.MeanCosine }},
		{"Out-of-margin share vs time requirement", "out_of_margin%",
			func(s report.Summary) float64 { return s.OutOfMarginPct }},
		{"Bias (delivered / true total) vs time requirement", "bias",
			func(s report.Summary) float64 { return s.MeanBias }},
	} {
		seriesView(cfg.Out, v.title, v.metric, res.Summaries, v.pick)
	}
	fmt.Fprintln(cfg.Out, "=== Exp. 4: other effects (bin dims / binning type / agg type / concurrency / specificity) ===")
	if err := report.RenderEffects(cfg.Out, res.Effects); err != nil {
		return nil, err
	}
	return res, nil
}

// seriesView prints one metric column per engine across TRs — the shape of
// the line charts in Fig. 6a–c.
func seriesView(out io.Writer, title, metric string, rows []report.Summary,
	pick func(report.Summary) float64) {
	fmt.Fprintf(out, "=== %s ===\n", title)
	byDriver := map[string][]report.Summary{}
	var order []string
	for _, s := range rows {
		if _, ok := byDriver[s.Key.Driver]; !ok {
			order = append(order, s.Key.Driver)
		}
		byDriver[s.Key.Driver] = append(byDriver[s.Key.Driver], s)
	}
	for _, d := range order {
		fmt.Fprintf(out, "%-12s", d)
		for _, s := range byDriver[d] {
			fmt.Fprintf(out, "  tr=%gms:%8.3f", s.Key.TimeReqMS, pick(s))
		}
		fmt.Fprintf(out, "   (%s)\n", metric)
	}
}

// Fig6d runs all workflow types at one fixed TR and prints the proportion
// of missing bins per engine and workflow type.
func Fig6d(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	db, flows, err := buildWorkload(cfg, cfg.Rows)
	if err != nil {
		return nil, err
	}
	s := engineSettings(cfg, cfg.Rows)
	s.TimeRequirement = cfg.TRs[len(cfg.TRs)/2]

	var records []driver.Record
	for _, name := range cfg.Engines {
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		recs, err := p.Run(flows, s)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
	}
	rows := report.Summarize(records, report.GroupBy{Driver: true, WorkflowType: true})
	fmt.Fprintf(cfg.Out, "=== Figure 6d: missing bins by workflow type (tr=%v) ===\n", s.TimeRequirement)
	if err := report.RenderSummaries(cfg.Out, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig6e compares normalized vs de-normalized schemas for the join-capable
// engines at two data sizes (Exp. 2).
func Fig6e(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	engines := make([]string, 0, 2)
	for _, e := range cfg.Engines {
		if core.SupportsJoins(e) {
			engines = append(engines, e)
		}
	}
	if len(engines) == 0 {
		engines = []string{"exactdb", "onlinedb"}
	}
	// Paper: 100M and 500M. At our scale the smaller size must still keep
	// the online engine's blocking fallback above the TR sweep (otherwise
	// the paper's "XDB stays flat, MonetDB grows" contrast disappears), so
	// sweep {1×, 2×} of the configured size.
	sizes := []int{cfg.Rows, 2 * cfg.Rows}

	var records []driver.Record
	for _, rows := range sizes {
		// The workload comes from the flat schema so both variants run
		// identical queries (attributes resolve through dimensions on the
		// normalized variant).
		flat, flows, err := buildWorkload(cfg, rows)
		if err != nil {
			return nil, err
		}
		joined, err := core.BuildData(rows, true, cfg.Seed)
		if err != nil {
			return nil, err
		}
		mixed := core.MixedOnly(flows)
		for _, useJoins := range []bool{false, true} {
			db := flat
			if useJoins {
				db = joined
			}
			for _, name := range engines {
				s := engineSettings(cfg, rows)
				s.UseJoins = useJoins
				p, err := core.Prepare(name, db, s)
				if err != nil {
					return nil, err
				}
				for _, tr := range cfg.TRs {
					s.TimeRequirement = tr
					recs, err := p.Run(mixed, s)
					if err != nil {
						return nil, err
					}
					// Annotate schema variant through the driver name.
					for i := range recs {
						if useJoins {
							recs[i].Driver += "+join"
						}
					}
					records = append(records, recs...)
				}
			}
		}
	}
	rows := report.Summarize(records, report.GroupBy{Driver: true, DataSize: true})
	fmt.Fprintln(cfg.Out, "=== Figure 6e: normalized vs de-normalized TR violations (Exp. 2) ===")
	if err := report.RenderSummaries(cfg.Out, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrepRow reports one engine's data preparation time (Sec. 5.2).
type PrepRow struct {
	Engine   string
	Rows     int
	Bytes    int64
	PrepTime time.Duration
}

// Prep measures the data preparation time of every engine on the default
// dataset.
func Prep(cfg Config) ([]PrepRow, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []PrepRow
	for _, name := range cfg.Engines {
		p, err := core.Prepare(name, db, engineSettings(cfg, cfg.Rows))
		if err != nil {
			return nil, err
		}
		out = append(out, PrepRow{Engine: name, Rows: cfg.Rows, Bytes: db.TotalBytes(), PrepTime: p.PrepTime})
	}
	fmt.Fprintln(cfg.Out, "=== Data preparation time (Sec. 5.2) ===")
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-14s rows=%-9d bytes=%-11d prep=%v\n", r.Engine, r.Rows, r.Bytes, r.PrepTime)
	}
	return out, nil
}

// Table1 runs one mixed workflow on the progressive engine and prints the
// detailed per-query report (paper Table 1, appendix).
func Table1(cfg Config) ([]driver.Record, error) {
	cfg = cfg.withDefaults()
	db, flows, err := buildWorkload(cfg, cfg.Rows)
	if err != nil {
		return nil, err
	}
	mixed := core.MixedOnly(flows)[:1]
	s := engineSettings(cfg, cfg.Rows)
	s.TimeRequirement = cfg.TRs[0]
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		return nil, err
	}
	recs, err := p.Run(mixed, s)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Out, "=== Table 1: detailed report (one mixed workflow, progressive engine) ===")
	if err := report.WriteDetailedCSV(cfg.Out, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// ThinkTimeResult is one point of Fig. 6f.
type ThinkTimeResult struct {
	ThinkTime   time.Duration
	MissingBins float64
	Speculative bool
}

// Exp5Result compares System Y (idelayer over exactdb) with its backend.
type Exp5Result struct {
	Engine        string
	MeanLatencyMS float64
	TRViolatedPct float64
	Queries       int
}

// Exp5 replicates Sec. 5.6: three 1:N workflows on exactdb directly and on
// the System-Y layer above it; the layer adds a constant per-query delay.
func Exp5(cfg Config) ([]Exp5Result, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workflow.NewGenerator(db.Fact)
	if err != nil {
		return nil, err
	}
	var flows []*workflow.Workflow
	for i := 0; i < 3; i++ {
		w, err := gen.Generate(workflow.GenConfig{
			Type: workflow.OneToNLinking, Interactions: cfg.Interactions,
			Seed: cfg.Seed + int64(500+i), Name: fmt.Sprintf("1n-variant-%d", i),
		})
		if err != nil {
			return nil, err
		}
		flows = append(flows, w)
	}

	var out []Exp5Result
	// Generous TR so System Y's render delay shows up as latency, not as
	// violations (the paper measured latency by watching the UI update).
	s := engineSettings(cfg, cfg.Rows)
	s.TimeRequirement = 10 * cfg.TRs[len(cfg.TRs)-1]
	for _, name := range []string{"exactdb", "systemy"} {
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		recs, err := p.Run(flows, s)
		if err != nil {
			return nil, err
		}
		var latSum float64
		var violated int
		for _, r := range recs {
			latSum += r.LatencyMS()
			if r.Metrics.TRViolated {
				violated++
			}
		}
		out = append(out, Exp5Result{
			Engine:        name,
			MeanLatencyMS: latSum / float64(len(recs)),
			TRViolatedPct: 100 * float64(violated) / float64(len(recs)),
			Queries:       len(recs),
		})
	}
	fmt.Fprintln(cfg.Out, "=== Exp. 5: System Y (IDE layer) vs direct backend ===")
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-10s queries=%-4d mean_latency=%.2fms tr_violated=%.1f%%\n",
			r.Engine, r.Queries, r.MeanLatencyMS, r.TRViolatedPct)
	}
	return out, nil
}
