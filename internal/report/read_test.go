package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"idebench/internal/driver"
	"idebench/internal/workflow"
)

func TestDetailedCSVRoundTrip(t *testing.T) {
	in := []driver.Record{
		rec("exact", 10, workflow.Mixed, ok(0.125)),
		rec("exact", 10, workflow.Mixed, violated()),
	}
	in[0].Workflow = "mixed-00"
	in[1].Workflow = "1n-03"
	var buf bytes.Buffer
	if err := WriteDetailedCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDetailedCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	r0 := got[0]
	if r0.Driver != "exact" || r0.TimeReqMS != 10 || r0.DataSize != "1m" {
		t.Errorf("metadata mangled: %+v", r0)
	}
	if math.Abs(r0.Metrics.RelErrAvg-0.125) > 1e-9 {
		t.Errorf("rel err = %v", r0.Metrics.RelErrAvg)
	}
	if !r0.Metrics.HasResult || r0.Metrics.TRViolated {
		t.Error("flags mangled")
	}
	if r0.WorkflowType != workflow.Mixed {
		t.Errorf("workflow type = %v", r0.WorkflowType)
	}
	r1 := got[1]
	if !r1.Metrics.TRViolated || r1.Metrics.HasResult {
		t.Error("violated flags mangled")
	}
	if !math.IsNaN(r1.Metrics.RelErrAvg) {
		t.Error("violated record should have NaN error")
	}
	if r1.WorkflowType != workflow.OneToNLinking {
		t.Errorf("workflow type from name = %v", r1.WorkflowType)
	}
}

func TestReadDetailedCSVErrors(t *testing.T) {
	// The pre-multi-user column set: no user/users/staleness_rows.
	var oldHeader []string
	for _, h := range DetailedHeader {
		if h != "user" && h != "users" && h != "staleness_rows" {
			oldHeader = append(oldHeader, h)
		}
	}
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "a,b,c\n"},
		{"short header", strings.Join(DetailedHeader[:5], ",") + "\n"},
		{"old header is refused", strings.Join(oldHeader, ",") + "\n"},
		{"bad int", strings.Join(DetailedHeader, ",") + "\nnotanint" + strings.Repeat(",", len(DetailedHeader)-1) + "\n"},
	}
	for _, c := range cases {
		if _, err := ReadDetailedCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRoundTripSummariesAgree(t *testing.T) {
	in := []driver.Record{
		rec("a", 5, workflow.Mixed, ok(0.1)),
		rec("a", 5, workflow.Mixed, ok(0.4)),
		rec("a", 5, workflow.Mixed, violated()),
	}
	for i := range in {
		in[i].Workflow = "mixed-00"
	}
	var buf bytes.Buffer
	if err := WriteDetailedCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDetailedCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Summarize(in, GroupBy{Driver: true})
	b := Summarize(got, GroupBy{Driver: true})
	if len(a) != 1 || len(b) != 1 {
		t.Fatal("unexpected group counts")
	}
	if math.Abs(a[0].TRViolatedPct-b[0].TRViolatedPct) > 1e-9 ||
		math.Abs(a[0].AreaAboveCurvePct-b[0].AreaAboveCurvePct) > 1e-3 ||
		math.Abs(a[0].MissingBinsPct-b[0].MissingBinsPct) > 1e-3 {
		t.Errorf("summaries diverge after round trip:\n%+v\n%+v", a[0], b[0])
	}
}

func TestWorkflowTypeOf(t *testing.T) {
	cases := map[string]workflow.Type{
		"mixed-00":      workflow.Mixed,
		"1n-05":         workflow.OneToNLinking,
		"n1-01":         workflow.NToOneLinking,
		"sequential-9":  workflow.SequentialLinking,
		"independent-2": workflow.IndependentBrowsing,
		"custom":        workflow.Mixed, // fallback
	}
	for name, want := range cases {
		if got := workflowTypeOf(name); got != want {
			t.Errorf("workflowTypeOf(%q) = %v, want %v", name, got, want)
		}
	}
}
