package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

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

func TestRunOverall(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunOverall(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	if len(res.PrepTime) != 2 {
		t.Errorf("prep times = %d, want 2", len(res.PrepTime))
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
	var buf bytes.Buffer
	rows, err := Fig5(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 engines × 2 TRs
		t.Errorf("summary rows = %d, want 4", len(rows))
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "MRE CDF", "tr_violated%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

func TestFig6Series(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	if _, err := Fig6a(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6a") {
		t.Error("fig6a header missing")
	}
	buf.Reset()
	if _, err := Fig6b(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "median_margin") {
		t.Error("fig6b metric missing")
	}
	buf.Reset()
	if _, err := Fig6c(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cosine") {
		t.Error("fig6c metric missing")
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

func TestExp4(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Exp4(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no effect rows")
	}
	if !strings.Contains(buf.String(), "bin_dims") {
		t.Error("exp4 output missing factors")
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
	// Paper ordering: XDB ≫ System X > MonetDB ≫ IDEA.
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
