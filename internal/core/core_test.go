package core

import (
	"testing"
	"time"

	"idebench/internal/workflow"
)

func TestSizeLabel(t *testing.T) {
	cases := []struct {
		rows int
		want string
	}{
		{1_000_000, "1m"}, {500_000, "500k"}, {250_000, "250k"}, {1234, "1234"},
	}
	for _, c := range cases {
		if got := SizeLabel(c.rows); got != c.want {
			t.Errorf("SizeLabel(%d) = %q, want %q", c.rows, got, c.want)
		}
	}
}

func TestDefaults(t *testing.T) {
	trs := DefaultTimeRequirements()
	if len(trs) != 5 {
		t.Errorf("default TRs = %d, want 5 (paper: 0.5,1,3,5,10s)", len(trs))
	}
	for i := 1; i < len(trs); i++ {
		if trs[i] <= trs[i-1] {
			t.Error("TRs should be increasing")
		}
	}
	thinks := DefaultThinkTimes()
	if len(thinks) != 10 {
		t.Errorf("think times = %d, want 10 (paper: 1..10s)", len(thinks))
	}
	s := DefaultSettings()
	if s.Confidence != 0.95 || s.DataSize != SizeM {
		t.Errorf("default settings wrong: %+v", s)
	}
}

func TestNewEngineRegistry(t *testing.T) {
	for _, name := range append(append([]string(nil), EngineNames...), "progressive-spec", "systemy", "sqldb") {
		e, err := NewEngine(name)
		if err != nil {
			t.Errorf("NewEngine(%s): %v", name, err)
			continue
		}
		if e.Name() == "" {
			t.Errorf("engine %s has empty name", name)
		}
	}
	if _, err := NewEngine("nope"); err == nil {
		t.Error("unknown engine should fail")
	}
}

func TestSupportsJoins(t *testing.T) {
	if !SupportsJoins("exactdb") || !SupportsJoins("onlinedb") {
		t.Error("exactdb/onlinedb support joins")
	}
	if SupportsJoins("progressive") || SupportsJoins("sampledb") {
		t.Error("progressive/sampledb must not claim join support")
	}
}

func TestBuildDataDenormalized(t *testing.T) {
	db, err := BuildData(20000, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if db.IsNormalized() {
		t.Error("expected de-normalized database")
	}
	if db.NumRows() != 20000 {
		t.Errorf("rows = %d", db.NumRows())
	}
	if db.Fact.Column("carrier") == nil {
		t.Error("flights schema missing carrier")
	}
}

func TestBuildDataNormalized(t *testing.T) {
	db, err := BuildData(20000, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !db.IsNormalized() || len(db.Dimensions) != 2 {
		t.Error("expected star schema with 2 dimensions")
	}
	// Same seed: fact row count matches the flat build.
	flat, err := BuildData(20000, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRows() != flat.NumRows() {
		t.Error("normalized and flat builds should have equal cardinality")
	}
}

func TestPrepareAndRun(t *testing.T) {
	db, err := BuildData(20000, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSettings()
	s.DataSize = 20000
	s.TimeRequirement = 100 * time.Millisecond
	s.ThinkTime = 0
	p, err := Prepare("exactdb", db, s)
	if err != nil {
		t.Fatal(err)
	}
	if p.PrepTime <= 0 {
		t.Error("prep time should be measured")
	}
	flows, err := GenerateWorkflows(db, 1, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	mixed := MixedOnly(flows)
	if len(mixed) != 1 {
		t.Fatalf("mixed workflows = %d", len(mixed))
	}
	recs, err := p.Run(mixed, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("no records produced")
	}
	for _, r := range recs {
		if r.DataSize != "20k" {
			t.Errorf("data size label = %q", r.DataSize)
		}
	}
}

func TestPrepareRejectsJoinIncapableEngines(t *testing.T) {
	db, err := BuildData(5000, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSettings()
	if _, err := Prepare("progressive", db, s); err == nil {
		t.Error("progressive on star schema should fail")
	}
	if _, err := Prepare("sampledb", db, s); err == nil {
		t.Error("sampledb on star schema should fail")
	}
	if _, err := Prepare("exactdb", db, s); err != nil {
		t.Errorf("exactdb on star schema should work: %v", err)
	}
}

func TestGenerateWorkflowsSet(t *testing.T) {
	db, err := BuildData(5000, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := GenerateWorkflows(db, 2, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 10 { // 5 types × 2
		t.Errorf("flows = %d, want 10", len(flows))
	}
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			t.Errorf("workflow %s invalid: %v", f.Name, err)
		}
	}
}

func TestMixedOnly(t *testing.T) {
	flows := []*workflow.Workflow{
		{Type: workflow.Mixed}, {Type: workflow.SequentialLinking}, {Type: workflow.Mixed},
	}
	if got := len(MixedOnly(flows)); got != 2 {
		t.Errorf("mixed = %d, want 2", got)
	}
}
