package progressive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

func TestConformance(t *testing.T) {
	enginetest.Conformance(t, func() engine.Engine { return New(Config{}) }, true)
}

func TestMultiUserScenario(t *testing.T) {
	enginetest.MultiUserScenario(t, func() engine.Engine { return New(Config{}) }, true)
}

// A session opened before Prepare must start working once the engine is
// prepared (the stateless engines, their own sessions, behave this way, so
// the progressive session late-binds to match).
func TestSessionOpenedBeforePrepare(t *testing.T) {
	e := New(Config{})
	sess := e.OpenSession()
	defer sess.Close()
	if _, err := sess.StartQuery(enginetest.CountByCarrier()); err == nil {
		t.Fatal("StartQuery on an unprepared engine should fail")
	}
	db := enginetest.SmallDB(5000, 13)
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatalf("session opened before Prepare still unusable after Prepare: %v", err)
	}
	if res := enginetest.WaitResult(t, h, 30*time.Second); res == nil {
		t.Fatal("no result from late-bound session")
	}
}

func TestMultiUserScenarioSpeculative(t *testing.T) {
	enginetest.MultiUserScenario(t, func() engine.Engine { return New(Config{Speculate: true}) }, true)
}

func TestIngestScenario(t *testing.T) {
	enginetest.IngestScenario(t, func() engine.Engine { return New(Config{}) }, true)
}

func TestIngestScenarioSpeculative(t *testing.T) {
	enginetest.IngestScenario(t, func() engine.Engine { return New(Config{Speculate: true}) }, true)
}

func TestName(t *testing.T) {
	if New(Config{}).Name() != "progressive" {
		t.Error("name wrong")
	}
}

func TestRejectsNormalizedSchema(t *testing.T) {
	db := enginetest.NormalizedDB(100, 1)
	if err := New(Config{}).Prepare(db, engine.Options{}); err == nil {
		t.Error("progressive should reject normalized schemas (IDEA does not support joins)")
	}
}

func TestPartialSnapshotsImprove(t *testing.T) {
	db := enginetest.SmallDB(122*dataset.BlockRows, 13)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	// Poll immediately: should get a (possibly empty) snapshot without error.
	first := h.Snapshot()
	if first == nil {
		t.Fatal("progressive engine must always answer polls")
	}
	res := enginetest.WaitResult(t, h, 30*time.Second)
	if !res.Complete {
		t.Error("finished progressive query should be complete")
	}
	if res.RowsSeen < first.RowsSeen {
		t.Error("progress went backwards")
	}
	gt, _ := enginetest.Exact(db, enginetest.CountByCarrier())
	if err := enginetest.ResultsEqual(gt, res, 0); err != nil {
		t.Errorf("completed progressive result should be exact: %v", err)
	}
}

func TestResultReuseWithinWorkflow(t *testing.T) {
	db := enginetest.SmallDB(300000, 19)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	q := enginetest.CountByCarrier()
	h1, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Done()
	if p := sess.stateProgress(q); p != 1 {
		t.Fatalf("state progress = %v, want 1", p)
	}
	// Re-issuing the same query must complete instantly from cache.
	start := time.Now()
	h2, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	<-h2.Done()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("reuse took %v, expected near-instant", elapsed)
	}
	res := h2.Snapshot()
	if res == nil || !res.Complete {
		t.Error("reused result should be complete")
	}

	// WorkflowStart clears the cache.
	sess.WorkflowStart()
	if p := sess.stateProgress(q); p != 0 {
		t.Errorf("cache survived WorkflowStart: progress %v", p)
	}
	sess.WorkflowEnd()
}

// TestReuseKeyedBySemantics: the session's reuse cache must not hand one
// query another's state. With "a,b" a carrier value of its own, IN ["a,b"]
// and IN ["a","b"] are different filters, and each must return its own
// exact final even when the other ran first in the same workflow.
func TestReuseKeyedBySemantics(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "dep_delay", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("flights", schema, 100)
	for i := 0; i < 100; i++ {
		b.AppendString(0, []string{"a,b", "a", "b", "c"}[i%4])
		b.AppendNum(1, float64(i))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &dataset.Database{Fact: fact}
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	var finals []*query.Result
	for _, vals := range [][]string{{"a,b"}, {"a", "b"}} {
		q := enginetest.CountByCarrier()
		q.Filter = query.Filter{Predicates: []query.Predicate{{Field: "carrier", Op: query.OpIn, Values: vals}}}
		h, err := sess.StartQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res := enginetest.WaitResult(t, h, 30*time.Second)
		want, err := enginetest.Exact(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.ResultsEqual(want, res, 0); err != nil {
			t.Errorf("IN %q: final is not the query's own exact answer: %v", vals, err)
		}
		finals = append(finals, res)
	}
	if enginetest.ResultsEqual(finals[0], finals[1], 0) == nil {
		t.Error(`IN ["a,b"] and IN ["a","b"] returned the same final`)
	}
}

func TestSpeculationWarmsLinkedQueries(t *testing.T) {
	db := enginetest.SmallDB(98*dataset.BlockRows, 23)
	e := New(Config{Speculate: true})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	// Source: count by carrier. Target: avg delay by distance.
	src := enginetest.CountByCarrier()
	dst := enginetest.AvgDelayByDistance()
	h1, _ := sess.StartQuery(src)
	<-h1.Done()
	h2, _ := sess.StartQuery(dst)
	<-h2.Done()

	sess.LinkVizs(src.VizName, dst.VizName)
	time.Sleep(100 * time.Millisecond) // think time: speculation runs

	// The query a selection of carrier "AA" would trigger:
	dict := db.Fact.Column("carrier").Dict
	code, _ := dict.Lookup("AA")
	sel := query.SelectionPredicate(src.Bins[0], int64(code), dict)
	selQ := *dst
	selQ.Filter = dst.Filter.And(sel)

	if p := sess.stateProgress(&selQ); p <= 0 {
		t.Error("speculation did not warm the selection query")
	}

	// Issuing the actual query picks up the speculative state.
	h3, err := sess.StartQuery(&selQ)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, h3, 30*time.Second)
	gt, _ := enginetest.Exact(db, &selQ)
	// Tolerance: permuted accumulation order shifts float sums in the last bits.
	if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
		t.Errorf("speculatively warmed query wrong: %v", err)
	}
}

// TestSpeculationSurvivesCompletedRound is the regression test for the old
// speculator lifecycle bug: its loop goroutine returned permanently once a
// round of targets finished (allDone), but e.spec stayed non-nil, so every
// later LinkVizs fed targets to a dead goroutine and speculation silently
// stopped for the rest of the run. With shared-scan execution each link
// round attaches fresh consumers, so a second link after a completed first
// round must still make progress.
func TestSpeculationSurvivesCompletedRound(t *testing.T) {
	db := enginetest.SmallDB(73*dataset.BlockRows, 41)
	e := New(Config{Speculate: true})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	src := enginetest.CountByCarrier()
	dst := enginetest.AvgDelayByDistance()
	h1, _ := sess.StartQuery(src)
	<-h1.Done()
	h2, _ := sess.StartQuery(dst)
	<-h2.Done()

	// Round 1: link src -> dst and wait until every speculated selection
	// completes (the condition that killed the old speculator).
	sess.LinkVizs(src.VizName, dst.VizName)
	dict := db.Fact.Column("carrier").Dict
	round1 := make([]*query.Query, 0, len(enginetest.Carriers))
	for _, c := range enginetest.Carriers {
		code, _ := dict.Lookup(c)
		selQ := *dst
		selQ.Filter = dst.Filter.And(query.SelectionPredicate(src.Bins[0], int64(code), dict))
		round1 = append(round1, &selQ)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for _, q := range round1 {
			if sess.stateProgress(q) == 1 {
				done++
			}
		}
		if done == len(round1) {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("round 1 speculation incomplete: %d/%d targets", done, len(round1))
		}
		time.Sleep(time.Millisecond)
	}

	// Round 2: link the other way. The old engine would silently do nothing.
	sess.LinkVizs(dst.VizName, src.VizName)
	gt, err := enginetest.Exact(db, dst)
	if err != nil {
		t.Fatal(err)
	}
	keys := gt.SortedKeys()
	if len(keys) == 0 {
		t.Fatal("no distance bins in ground truth")
	}
	selQ2 := *src
	selQ2.Filter = src.Filter.And(query.SelectionPredicate(dst.Bins[0], keys[0].A, nil))
	deadline = time.Now().Add(30 * time.Second)
	for sess.stateProgress(&selQ2) == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("second speculation round made no progress (speculator lifecycle bug)")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSpeculationDisabledByDefault(t *testing.T) {
	db := enginetest.SmallDB(50000, 29)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	src := enginetest.CountByCarrier()
	dst := enginetest.AvgDelayByDistance()
	h1, _ := sess.StartQuery(src)
	<-h1.Done()
	h2, _ := sess.StartQuery(dst)
	<-h2.Done()
	sess.LinkVizs(src.VizName, dst.VizName)
	time.Sleep(20 * time.Millisecond)

	dict := db.Fact.Column("carrier").Dict
	code, _ := dict.Lookup("AA")
	selQ := *dst
	selQ.Filter = dst.Filter.And(query.SelectionPredicate(src.Bins[0], int64(code), dict))
	if p := sess.stateProgress(&selQ); p != 0 {
		t.Error("speculation ran despite being disabled")
	}
}

func TestDeleteVizForgetsQuery(t *testing.T) {
	db := enginetest.SmallDB(10000, 31)
	e := New(Config{Speculate: true})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	src := enginetest.CountByCarrier()
	h, _ := sess.StartQuery(src)
	<-h.Done()
	sess.DeleteViz(src.VizName)
	// Linking a deleted viz must be a no-op (no panic, no speculation).
	sess.LinkVizs(src.VizName, "ghost")
}

func TestMinMaxAggProgressive(t *testing.T) {
	db := enginetest.SmallDB(50000, 37)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	q := &query.Query{
		VizName: "v",
		Table:   "flights",
		Bins:    []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Min, Field: "dep_delay"},
			{Func: query.Max, Field: "dep_delay"},
		},
	}
	h, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, h, 30*time.Second)
	gt, _ := enginetest.Exact(db, q)
	if err := enginetest.ResultsEqual(gt, res, 0); err != nil {
		t.Errorf("min/max mismatch: %v", err)
	}
}

// TestBinnedQueriesRaceAppends is the -race wall for the derived bin-code
// columns on a live engine: sessions keep compiling quantitative binnings —
// the same few, so first builds, memo hits and extensions by fresh views all
// collide — while batches land back to back (each Append recompiling every
// cached consumer under the scheduler lock) and the scan workers read the
// codes. Every answer fetched after Done must be complete and equal the
// exact truth of the data version its watermark names.
func TestBinnedQueriesRaceAppends(t *testing.T) {
	db := enginetest.SmallDB(15*dataset.BlockRows, 77)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	donor := enginetest.SmallDB(15000, 78)
	const batchRows = 100
	var stream []*ingest.Batch
	for lo := 0; lo+batchRows <= donor.NumRows(); lo += batchRows {
		stream = append(stream, ingest.FromTable(donor.Fact, lo, lo+batchRows))
	}
	h := ingest.NewHarness(db, ingest.NewFixedSource(stream...), ingest.EngineSink{A: e})

	hist := func(field string, width float64, agg query.Aggregate) *query.Query {
		return &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: field, Kind: dataset.Quantitative, Width: width}},
			Aggs: []query.Aggregate{agg}}
	}
	shapes := []*query.Query{
		hist("dep_delay", 5, query.Aggregate{Func: query.Count}),
		hist("dep_delay", 10, query.Aggregate{Func: query.Avg, Field: "distance"}),
		hist("distance", 100, query.Aggregate{Func: query.Count}),
		hist("distance", 1, query.Aggregate{Func: query.Count}), // 2400 bins: arithmetic
		{Table: "flights",
			Bins: []query.Binning{{Field: "arr_delay", Kind: dataset.Quantitative, Width: 20},
				{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Sum, Field: "dep_delay"}}},
		{Table: "flights",
			Bins: []query.Binning{{Field: "dep_delay", Kind: dataset.Quantitative, Width: 10},
				{Field: "distance", Kind: dataset.Quantitative, Width: 250}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "carrier", Op: query.OpIn, Values: []string{"AA"}}}}},
	}

	const users = 4
	var wg sync.WaitGroup
	var checked atomic.Int64
	stop := make(chan struct{})
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			sess := e.OpenSession()
			defer sess.Close()
			sess.WorkflowStart()
			defer sess.WorkflowEnd()
			for round := 0; round < 25; round++ {
				q := *shapes[(u+round)%len(shapes)]
				q.VizName = fmt.Sprintf("u%d_r%d", u, round)
				hdl, err := sess.StartQuery(&q)
				if err != nil {
					t.Errorf("%s: %v", q.VizName, err)
					return
				}
				select {
				case <-hdl.Done():
				case <-time.After(30 * time.Second):
					t.Errorf("%s did not complete", q.VizName)
					return
				}
				res := hdl.Snapshot()
				if res == nil || !res.Complete {
					t.Errorf("%s: Done closed but the fetched answer is not a complete final: %+v", q.VizName, res)
					return
				}
				gt, err := h.TruthAt(&q, res.Watermark)
				if err != nil {
					t.Errorf("%s: %v", q.VizName, err)
					return
				}
				if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
					t.Errorf("%s at watermark %d: %v", q.VizName, res.Watermark, err)
					return
				}
				checked.Add(1)
			}
		}(u)
	}
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for range stream {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Ingest(batchRows); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ingested
	if h.Batches() == 0 || checked.Load() == 0 {
		t.Fatalf("%d batches landed and %d complete answers were checked while the sessions ran; want some of both",
			h.Batches(), checked.Load())
	}
	t.Logf("%d complete answers checked across %d batches", checked.Load(), h.Batches())
}
