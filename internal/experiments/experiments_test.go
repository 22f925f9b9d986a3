package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"idebench/internal/report"
	"idebench/internal/workflow"
)

// quickCfg is a minimal configuration that exercises every code path while
// keeping the full test suite fast.
func quickCfg(out *bytes.Buffer) Config {
	return Config{
		Rows:             30_000,
		WorkflowsPerType: 1,
		Interactions:     6,
		TRs:              []time.Duration{2 * time.Millisecond, 20 * time.Millisecond},
		ThinkTime:        time.Millisecond,
		Engines:          []string{"exactdb", "progressive"},
		Seed:             3,
		Out:              out,
	}
}

// overallRun runs the main experiment once for the tests below, which each
// check one view of it.
var overallRun = struct {
	once     sync.Once
	res      *OverallResult
	sections map[string]string // view header -> body
	dups     []string          // headers printed more than once
	err      error
}{}

// overall returns the shared run and its printed output split into views,
// keyed by header.
func overall(t *testing.T) (*OverallResult, map[string]string) {
	t.Helper()
	r := &overallRun
	r.once.Do(func() {
		var buf bytes.Buffer
		r.res, r.err = Overall(quickCfg(&buf))
		r.sections = map[string]string{}
		for _, part := range strings.Split(buf.String(), "=== ")[1:] {
			header, body, _ := strings.Cut(part, " ===\n")
			if _, dup := r.sections[header]; dup {
				r.dups = append(r.dups, header)
			}
			r.sections[header] = body
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, h := range r.dups {
		t.Errorf("view %q printed twice", h)
	}
	return r.res, r.sections
}

// view returns the body of the view whose header starts with prefix.
func view(t *testing.T, sections map[string]string, prefix string) string {
	t.Helper()
	for h, body := range sections {
		if strings.HasPrefix(h, prefix) {
			return body
		}
	}
	t.Errorf("view %q missing", prefix)
	return ""
}

func TestRunOverall(t *testing.T) {
	res, _ := overall(t)
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	drivers := map[string]bool{}
	trs := map[float64]bool{}
	for _, r := range res.Records {
		drivers[r.Driver] = true
		trs[r.TimeReqMS] = true
	}
	if len(drivers) != 2 || len(trs) != 2 {
		t.Errorf("drivers=%v trs=%v", drivers, trs)
	}
}

func TestFig5Output(t *testing.T) {
	res, sections := overall(t)
	if len(res.Summaries) != 4 { // 2 engines × 2 TRs
		t.Errorf("summary rows = %d, want 4", len(res.Summaries))
	}
	fig5 := view(t, sections, "Figure 5")
	for _, want := range []string{"MRE CDF", "tr_violated%"} {
		if !strings.Contains(fig5, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
	var table bytes.Buffer
	if err := report.RenderSummaries(&table, res.Summaries); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig5, table.String()) {
		t.Errorf("fig5 table is not the rendering of the run's summaries:\n%s", fig5)
	}
}

// TestFig6Series checks the Fig. 6a–c series and the out-of-margin and bias
// series. Each series value must be the Fig. 5 row of the same (engine, TR),
// which holds only because all the views render one run.
func TestFig6Series(t *testing.T) {
	res, sections := overall(t)
	for _, c := range []struct {
		prefix, metric string
		pick           func(report.Summary) float64
	}{
		{"Figure 6a", "tr_violated%", func(s report.Summary) float64 { return s.TRViolatedPct }},
		{"Figure 6b", "median_margin", func(s report.Summary) float64 { return s.MedianMargin }},
		{"Figure 6c", "mean_cosine", func(s report.Summary) float64 { return s.MeanCosine }},
		{"Out-of-margin", "out_of_margin%", func(s report.Summary) float64 { return s.OutOfMarginPct }},
		{"Bias", "bias", func(s report.Summary) float64 { return s.MeanBias }},
	} {
		lines := map[string]string{} // driver -> series line
		for _, line := range strings.Split(view(t, sections, c.prefix), "\n") {
			if strings.HasSuffix(line, "("+c.metric+")") {
				lines[strings.Fields(line)[0]] = line
			}
		}
		if len(lines) != 2 {
			t.Errorf("%s: %d series lines with metric %q, want 2", c.prefix, len(lines), c.metric)
		}
		for _, s := range res.Summaries {
			want := fmt.Sprintf("tr=%gms:%8.3f", s.Key.TimeReqMS, c.pick(s))
			if !strings.Contains(lines[s.Key.Driver], want) {
				t.Errorf("%s %s: series line %q lacks the Fig. 5 value %q",
					c.prefix, s.Key.Driver, lines[s.Key.Driver], want)
			}
		}
	}
}

func TestExp4(t *testing.T) {
	res, sections := overall(t)
	if len(res.Effects) == 0 {
		t.Fatal("no effect rows")
	}
	if !strings.Contains(view(t, sections, "Exp. 4"), "bin_dims") {
		t.Error("exp4 output missing factors")
	}
}

func TestFig6d(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig6d(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// 2 engines × 5 workflow types.
	if len(rows) != 10 {
		t.Errorf("rows = %d, want 10", len(rows))
	}
	types := map[workflow.Type]bool{}
	for _, r := range rows {
		types[r.Key.WorkflowType] = true
	}
	if len(types) != 5 {
		t.Errorf("workflow types = %d, want 5", len(types))
	}
}

func TestFig6e(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.Engines = []string{"exactdb"}
	rows, err := Fig6e(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 engine × 2 schema variants × 2 sizes.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	joined := 0
	for _, r := range rows {
		if strings.HasSuffix(r.Key.Driver, "+join") {
			joined++
		}
	}
	if joined != 2 {
		t.Errorf("normalized rows = %d, want 2", joined)
	}
}

func TestFig6f(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	results, err := Fig6f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 think times × 2 modes.
	if len(results) != 20 {
		t.Fatalf("results = %d, want 20", len(results))
	}
	spec, base := 0, 0
	for _, r := range results {
		if r.MissingBins < 0 || r.MissingBins > 1 {
			t.Errorf("missing bins out of range: %v", r.MissingBins)
		}
		if r.Speculative {
			spec++
		} else {
			base++
		}
	}
	if spec != 10 || base != 10 {
		t.Errorf("spec=%d base=%d", spec, base)
	}
	if !strings.Contains(buf.String(), "Figure 6f") {
		t.Error("fig6f header missing")
	}
}

func TestExp5(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	results, err := Exp5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	var direct, layered Exp5Result
	for _, r := range results {
		if r.Engine == "exactdb" {
			direct = r
		} else {
			layered = r
		}
	}
	// The IDE layer must add latency on top of the backend.
	if layered.MeanLatencyMS <= direct.MeanLatencyMS {
		t.Errorf("System Y latency %.2fms should exceed backend %.2fms",
			layered.MeanLatencyMS, direct.MeanLatencyMS)
	}
}

func TestPrep(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.Engines = []string{"exactdb", "progressive", "sampledb", "onlinedb"}
	// The ordering compares wall-clock prepares, so each engine's time is
	// the minimum of three: onlinedb does progressive's reorder plus tuple
	// work, and a single prepare of either can be stretched by the scheduler.
	times := map[string]time.Duration{}
	for i := 0; i < 3; i++ {
		rows, err := Prep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.PrepTime <= 0 {
				t.Errorf("%s: prep time not measured", r.Engine)
			}
			if prev, ok := times[r.Engine]; !ok || r.PrepTime < prev {
				times[r.Engine] = r.PrepTime
			}
		}
	}
	// The paper orders prepare times XDB ≫ System X > MonetDB ≫ IDEA. Only
	// onlinedb > progressive is asserted: progressive (IDEA) is not last
	// here because it pays its sampling-order reorder inside Prepare, and
	// onlinedb does that reorder plus its tuple work.
	if times["onlinedb"] <= times["progressive"] {
		t.Errorf("onlinedb prep (%v) should exceed progressive prep (%v)",
			times["onlinedb"], times["progressive"])
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	recs, err := Table1(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	out := buf.String()
	if !strings.Contains(out, "id,interaction,viz_name") {
		t.Error("table1 CSV header missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Rows <= 0 || c.WorkflowsPerType != 10 || c.Interactions != 18 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.TRs) != 5 || len(c.Engines) != 4 {
		t.Errorf("sweep defaults wrong: %+v", c)
	}
}

func TestTrOfHelper(t *testing.T) {
	if trOf(12*time.Millisecond) != 12 {
		t.Error("trOf wrong")
	}
}
