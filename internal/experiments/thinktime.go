package experiments

import (
	"fmt"
	"math"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// Fig6f replicates Exp. 3 (Sec. 5.4): the speculative extension of the
// progressive engine across increasing think times. The custom workflow
// follows the paper exactly:
//
//  1. a 2D count histogram (100 bins) of arrival vs departure delays,
//  2. a 1D count histogram of carriers,
//  3. a link setting the 1D histogram as source and the 2D one as target,
//  4. a single-carrier selection forcing the 2D histogram to update.
//
// With speculation enabled, the engine uses the think time before
// interaction 4 to pre-execute the per-carrier selection queries, so longer
// think times leave fewer missing bins at the fixed time requirement.
func Fig6f(cfg Config) ([]ThinkTimeResult, error) {
	cfg = cfg.withDefaults()
	// The Exp.-3 query (single-carrier filtered 2D count) is cheap: at the
	// default size the progressive engine finishes it inside even the
	// smallest TR, leaving no missing bins for speculation to recover. Run
	// this experiment at 4× the configured size so partial results are
	// partial (the paper had the same property: 500M rows vs a 3s TR).
	rows := 4 * cfg.Rows
	db, err := core.BuildData(rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The paper uses TR=3s (mid sweep). Our progressive substrate covers a
	// larger data fraction per TR than IDEA did, so the think-time effect
	// is measured at the smallest TR of the sweep (≙0.5s), where partial
	// results still have missing bins for speculation to recover.
	tr := cfg.TRs[0]
	thinks := core.DefaultThinkTimes()

	carriers := db.Fact.Column("carrier")
	if carriers == nil {
		return nil, fmt.Errorf("experiments: dataset has no carrier column")
	}
	// The paper selects a single carrier; use the most frequent one (its
	// filtered 2D histogram has the richest bin structure) and repeat each
	// think-time run to smooth scheduler noise.
	counts := make([]int, carriers.Dict.Len())
	for _, c := range carriers.Codes {
		counts[c]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	top := carriers.Dict.Value(uint32(best))
	sel := []string{top, top, top} // 3 repetitions per think time

	var out []ThinkTimeResult
	for _, speculative := range []bool{false, true} {
		engName := "progressive"
		if speculative {
			engName = "progressive-spec"
		}
		s := engineSettings(cfg, rows)
		s.TimeRequirement = tr
		p, err := core.Prepare(engName, db, s)
		if err != nil {
			return nil, err
		}
		for _, think := range thinks {
			s.ThinkTime = think
			var missing float64
			for _, carrier := range sel {
				w := thinkTimeWorkflow(db, carrier)
				recs, err := p.Run([]*workflow.Workflow{w}, s)
				if err != nil {
					return nil, err
				}
				// The last record is the 2D histogram update after the
				// selection (interaction 4).
				last := recs[len(recs)-1]
				if last.InteractionID != 3 || last.VizName != "viz_2d" {
					return nil, fmt.Errorf("experiments: unexpected final record %+v", last)
				}
				m := last.Metrics.MissingBins
				if math.IsNaN(m) {
					m = 1
				}
				missing += m
			}
			out = append(out, ThinkTimeResult{
				ThinkTime:   think,
				MissingBins: missing / float64(len(sel)),
				Speculative: speculative,
			})
		}
	}

	fmt.Fprintf(cfg.Out, "=== Figure 6f: missing bins vs think time (tr=%v) ===\n", tr)
	for _, r := range out {
		mode := "baseline   "
		if r.Speculative {
			mode = "speculative"
		}
		fmt.Fprintf(cfg.Out, "%s think=%-6v missing_bins=%.3f\n", mode, r.ThinkTime, r.MissingBins)
	}
	return out, nil
}

// thinkTimeWorkflow builds the paper's 4-interaction Exp.-3 workflow with
// the given carrier selected in step 4.
func thinkTimeWorkflow(db *dataset.Database, carrier string) *workflow.Workflow {
	arr := quantBinning(db, "arr_delay", 10)
	dep := quantBinning(db, "dep_delay", 10)
	spec2D := &workflow.VizSpec{
		Name:  "viz_2d",
		Table: db.Fact.Name,
		Bins:  []query.Binning{arr, dep},
		Aggs:  []query.Aggregate{{Func: query.Count}},
	}
	spec1D := &workflow.VizSpec{
		Name:  "viz_1d",
		Table: db.Fact.Name,
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:  []query.Aggregate{{Func: query.Count}},
	}
	return &workflow.Workflow{
		Name: "exp3-" + carrier,
		Type: workflow.SequentialLinking,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindCreateViz, Viz: "viz_2d", Spec: spec2D},
			{Kind: workflow.KindCreateViz, Viz: "viz_1d", Spec: spec1D},
			{Kind: workflow.KindLink, From: "viz_1d", To: "viz_2d"},
			{Kind: workflow.KindSelect, Viz: "viz_1d", Predicate: &query.Predicate{
				Field: "carrier", Op: query.OpIn, Values: []string{carrier},
			}},
		},
	}
}

// quantBinning derives a bins-count binning from the column's observed
// range.
func quantBinning(db *dataset.Database, field string, bins int) query.Binning {
	col := db.Fact.Column(field)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range col.Nums {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	return query.Binning{
		Field:  field,
		Kind:   dataset.Quantitative,
		Width:  (hi - lo) / float64(bins),
		Origin: lo,
	}
}

// trOf is a tiny helper used by tests to confirm sweep ordering.
func trOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
