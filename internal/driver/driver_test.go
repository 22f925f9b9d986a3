package driver

import (
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/engine/onlinedb"
	"idebench/internal/engine/progressive"
	"idebench/internal/enginetest"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

func vizSpec(name string) *workflow.VizSpec {
	return &workflow.VizSpec{
		Name:  name,
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:  []query.Aggregate{{Func: query.Count}},
	}
}

func simpleWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Name: "test", Type: workflow.Mixed,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindCreateViz, Viz: "a", Spec: vizSpec("a")},
			{Kind: workflow.KindCreateViz, Viz: "b", Spec: vizSpec("b")},
			{Kind: workflow.KindLink, From: "a", To: "b"},
			{Kind: workflow.KindSelect, Viz: "a", Predicate: &query.Predicate{
				Field: "carrier", Op: query.OpIn, Values: []string{"AA"}}},
			{Kind: workflow.KindDiscard, Viz: "b"},
		},
	}
}

func prepared(t *testing.T, e engine.Engine, rows int) (*groundtruth.Cache, engine.Engine) {
	t.Helper()
	db := enginetest.SmallDB(rows, 11)
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return groundtruth.New(db), e
}

// simClock returns a SimClock whose deadline timers never force-fire: for
// tests where every query is expected to complete well inside its TR, so
// neither think time nor deadline waits cost real wall-clock.
func simClock() *SimClock {
	c := NewSimClock(time.Unix(1_000_000, 0))
	c.Grace = time.Hour
	return c
}

// replay runs Replay and fails the test on error.
func replay(t *testing.T, e engine.Engine, truth Truth, cfg Config, flows ...*workflow.Workflow) *Result {
	t.Helper()
	res, err := Replay(e, truth, cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunWorkflowRecords(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 20000)
	recs := replay(t, e, gt, Config{
		TimeRequirement: 2 * time.Second,
		ThinkTime:       time.Millisecond,
		DataSizeLabel:   "20k",
		Clock:           simClock(),
	}, simpleWorkflow()).Records
	// create(a)=1, create(b)=1, link refreshes b=1, select updates b=1,
	// discard=0 → 4 records.
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.ID != i {
			t.Errorf("record %d has ID %d", i, rec.ID)
		}
		if rec.Driver != "exactdb" || rec.DataSize != "20k" || rec.User != 0 || rec.Users != 1 {
			t.Error("record metadata wrong")
		}
		if rec.Metrics.TRViolated {
			t.Errorf("record %d violated a 2s TR on 20k rows", i)
		}
		if rec.Metrics.MissingBins != 0 || rec.Metrics.RelErrAvg != 0 {
			t.Errorf("exact engine should be perfect: %+v", rec.Metrics)
		}
		if rec.EndTime.Before(rec.StartTime) {
			t.Error("end before start")
		}
		if rec.SQL == "" {
			t.Error("record missing SQL rendering")
		}
	}
	// The selection-triggered query must carry the filter.
	last := recs[3]
	if last.VizName != "b" || last.InteractionID != 3 {
		t.Errorf("last record: %+v", last)
	}
}

func TestTRViolationOnTinyDeadline(t *testing.T) {
	// A blocking engine with a per-tuple cost model over 800k rows: the scan
	// reliably takes tens of milliseconds, so a 1ns deadline always fires
	// first even if the driver goroutine stalls between issuing and polling.
	// (A plain columnar scan can finish inside a scheduler stall on a loaded
	// host, making the deadline-vs-done select a coin flip.)
	gt, e := prepared(t, onlinedb.New(), 800000)
	cfg := Config{
		TimeRequirement: time.Nanosecond, // impossible deadline
		DataSizeLabel:   "800k",
	}
	// AVG forces onlinedb's blocking fallback: no intermediate reports, so
	// nothing is fetchable until the (slow) scan completes.
	blockingSpec := &workflow.VizSpec{
		Name:  "a",
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:  []query.Aggregate{{Func: query.Avg, Field: "dep_delay"}},
	}
	w := &workflow.Workflow{
		Name: "tiny", Type: workflow.IndependentBrowsing,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindCreateViz, Viz: "a", Spec: blockingSpec},
		},
	}
	recs := replay(t, e, gt, cfg, w).Records
	if len(recs) != 1 {
		t.Fatal("expected one record")
	}
	m := recs[0].Metrics
	if !m.TRViolated || m.HasResult {
		t.Errorf("blocking engine must violate a 1ns TR: %+v", m)
	}
	if m.MissingBins != 1 {
		t.Errorf("violated query should miss all bins: %v", m.MissingBins)
	}
}

func TestProgressiveNeverViolates(t *testing.T) {
	gt, e := prepared(t, progressive.New(progressive.Config{}), 400000)
	// Simulated time with a real-time grace: the 5ms virtual deadline fires
	// once the engine had up to 20ms of real execution — a partial result
	// must be fetchable whether or not the scan finished by then.
	clock := NewSimClock(time.Unix(1_000_000, 0))
	clock.Grace = 20 * time.Millisecond
	cfg := Config{
		TimeRequirement: 5 * time.Millisecond,
		DataSizeLabel:   "400k",
		Clock:           clock,
	}
	w := &workflow.Workflow{
		Name: "prog", Type: workflow.IndependentBrowsing,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindCreateViz, Viz: "a", Spec: vizSpec("a")},
		},
	}
	recs := replay(t, e, gt, cfg, w).Records
	if recs[0].Metrics.TRViolated {
		t.Error("progressive engine should answer any TR")
	}
	if !recs[0].Metrics.HasResult {
		t.Error("progressive result missing")
	}
}

func TestConcurrentQueriesRecorded(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 5000)
	w := &workflow.Workflow{
		Name: "fanout", Type: workflow.OneToNLinking,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindCreateViz, Viz: "src", Spec: vizSpec("src")},
			{Kind: workflow.KindCreateViz, Viz: "t1", Spec: vizSpec("t1")},
			{Kind: workflow.KindCreateViz, Viz: "t2", Spec: vizSpec("t2")},
			{Kind: workflow.KindLink, From: "src", To: "t1"},
			{Kind: workflow.KindLink, From: "src", To: "t2"},
			{Kind: workflow.KindSelect, Viz: "src", Predicate: &query.Predicate{
				Field: "carrier", Op: query.OpIn, Values: []string{"UA"}}},
		},
	}
	recs := replay(t, e, gt, Config{TimeRequirement: 2 * time.Second, Clock: simClock()}, w).Records
	// The selection updates t1 and t2 concurrently.
	var fanout []Record
	for _, rec := range recs {
		if rec.InteractionID == 5 {
			fanout = append(fanout, rec)
		}
	}
	if len(fanout) != 2 {
		t.Fatalf("selection should trigger 2 queries, got %d", len(fanout))
	}
	for _, rec := range fanout {
		if rec.ConcurrentQs != 2 {
			t.Errorf("ConcurrentQs = %d, want 2", rec.ConcurrentQs)
		}
	}
}

func TestInvalidWorkflowRejected(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 1000)
	w := &workflow.Workflow{
		Name: "bad", Type: workflow.Mixed,
		Interactions: []workflow.Interaction{
			{Kind: workflow.KindFilter, Viz: "ghost"},
		},
	}
	if _, err := Replay(e, gt, Config{TimeRequirement: time.Second}, []*workflow.Workflow{w}); err == nil {
		t.Error("invalid workflow should be rejected")
	}
}

func TestRunWorkflowsConcatenates(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 2000)
	w1 := &workflow.Workflow{Name: "w1", Type: workflow.Mixed, Interactions: []workflow.Interaction{
		{Kind: workflow.KindCreateViz, Viz: "a", Spec: vizSpec("a")},
	}}
	w2 := &workflow.Workflow{Name: "w2", Type: workflow.Mixed, Interactions: []workflow.Interaction{
		{Kind: workflow.KindCreateViz, Viz: "a", Spec: vizSpec("a")},
	}}
	recs := replay(t, e, gt, Config{TimeRequirement: time.Second, Clock: simClock()}, w1, w2).Records
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Workflow != "w1" || recs[1].Workflow != "w2" {
		t.Error("workflow names wrong")
	}
	if recs[1].ID <= recs[0].ID {
		t.Error("IDs should increase across workflows")
	}
}

func TestThinkTimeSeparatesInteractions(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 1000)
	// Hefty think times that would dominate the test's wall-clock on a real
	// clock; on the simulated clock they cost nothing real and show up only
	// on the virtual timeline.
	think := 30 * time.Second
	clock := simClock()
	w := &workflow.Workflow{Name: "tt", Type: workflow.Mixed, Interactions: []workflow.Interaction{
		{Kind: workflow.KindCreateViz, Viz: "a", Spec: vizSpec("a")},
		{Kind: workflow.KindCreateViz, Viz: "b", Spec: vizSpec("b")},
	}}
	start := clock.Now()
	res := replay(t, e, gt, Config{TimeRequirement: 500 * time.Second, ThinkTime: think, Clock: clock}, w)
	recs := res.Records
	elapsed := clock.Now().Sub(start)
	if res.WallClock != elapsed {
		t.Errorf("WallClock %v, want the virtual window %v", res.WallClock, elapsed)
	}
	if elapsed < think {
		t.Errorf("virtual run took %v, should include %v think time", elapsed, think)
	}
	// No think sleep after the last interaction.
	if elapsed >= 2*think {
		t.Errorf("virtual run took %v, want exactly one think gap of %v", elapsed, think)
	}
	// Records sit on the virtual timeline: the second interaction's query
	// starts one think time after the first.
	if gap := recs[1].StartTime.Sub(recs[0].StartTime); gap < think {
		t.Errorf("interactions %v apart on the virtual clock, want >= %v", gap, think)
	}
}
