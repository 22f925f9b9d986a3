package progressive

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// selectionRows reports how many rows the session's cached state for q has
// read from recorded filter selections instead of evaluating its filter.
func (s *session) selectionRows(q *query.Query) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[q.Signature()]
	if !ok {
		return 0
	}
	return st.Selections().RowsServed()
}

// slotMatches reports, per selection slot of the session, how its
// recorded predicate set relates to q's filter (engine.Selection.Match).
func (s *session) slotMatches(q *query.Query) []string {
	_, keys := q.SignatureKeys()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, sl := range s.sels.slots {
		n, exact := sl.sel.Match(keys)
		out = append(out, fmt.Sprintf("%d/%v", n, exact))
	}
	return out
}

var (
	drillP1 = query.Predicate{Field: "carrier", Op: query.OpIn, Values: []string{"AA", "DL", "WN"}}
	drillP2 = query.Predicate{Field: "dep_delay", Op: query.OpRange, Lo: -10, Hi: 30}
	drillP3 = query.Predicate{Field: "distance", Op: query.OpRange, Lo: 400, Hi: 1900}
)

// drillQuery is one step of a drill-down: viz name, shape and the filter's
// predicates.
func drillQuery(viz string, preds ...query.Predicate) *query.Query {
	q := &query.Query{VizName: viz, Table: "flights",
		Bins:   []query.Binning{{Field: "origin_state", Kind: dataset.Nominal}},
		Aggs:   []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "arr_delay"}},
		Filter: query.Filter{Predicates: preds}}
	if viz == "viz_dist" {
		q.Bins = []query.Binning{{Field: "distance", Kind: dataset.Quantitative, Width: 250}}
		q.Aggs = []query.Aggregate{{Func: query.Sum, Field: "dep_delay"}}
	}
	return q
}

// runExact issues q on sess, waits for its final and checks it against the
// exact answer over db.
func runExact(t *testing.T, sess engine.Session, db *dataset.Database, q *query.Query) {
	t.Helper()
	h, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, h, 30*time.Second)
	gt, err := enginetest.Exact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
		t.Fatalf("%s %v: %v", q.VizName, q.Filter.Predicates, err)
	}
}

// TestDrillDownReusesSelections: a drill-down chain p1 → p1∧p2 → p1∧p2∧p3,
// the last step issued on two sibling vizs at once, answers every step
// exactly while steps 2 and 3 read the rows the previous step recorded; a
// new workflow reads nothing its predecessor recorded.
func TestDrillDownReusesSelections(t *testing.T) {
	db := enginetest.SmallDB(60000, 41)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()

	step1 := drillQuery("viz_state", drillP1)
	runExact(t, sess, db, step1)
	if n := sess.selectionRows(step1); n != 0 {
		t.Fatalf("step 1 read %d rows from selections in a fresh workflow", n)
	}
	step2 := drillQuery("viz_state", drillP1, drillP2)
	runExact(t, sess, db, step2)
	if n := sess.selectionRows(step2); n == 0 {
		t.Fatal("step 2 evaluated p1 although step 1 recorded it")
	}
	// Step 3 is issued on two sibling vizs together: one claims the slot,
	// the other reads what it records or what step 2 recorded.
	step3 := drillQuery("viz_state", drillP3, drillP2, drillP1)
	sibling := drillQuery("viz_dist", drillP1, drillP2, drillP3)
	var wg sync.WaitGroup
	for _, q := range []*query.Query{step3, sibling} {
		wg.Add(1)
		go func() { defer wg.Done(); runExact(t, sess, db, q) }()
	}
	wg.Wait()
	if n := sess.selectionRows(step3); n == 0 {
		t.Fatal("step 3 evaluated p1∧p2 although step 2 recorded it")
	}
	if got, want := fmt.Sprint(sess.slotMatches(step3)), "[1/false 2/false 3/true]"; got != want {
		t.Fatalf("slots after a three-filter chain relate to step 3 as %s, want %s (siblings share one)", got, want)
	}

	sess.WorkflowStart()
	runExact(t, sess, db, step2)
	if n := sess.selectionRows(step2); n != 0 {
		t.Fatalf("step 2 of a new workflow read %d rows recorded in the previous one", n)
	}
	sess.WorkflowEnd()
}

// TestDrillDownReaderAttachesFirst: step 3 and its sibling sign in that
// order — the sibling claims the {p1,p2,p3} slot and step 3 finds it the
// most specific — and step 3 attaches and folds every chunk before the
// sibling attaches at all. The claimed slot stays empty throughout, so step
// 3 must read what step 2 recorded rather than evaluate p1∧p2 again.
func TestDrillDownReaderAttachesFirst(t *testing.T) {
	db := enginetest.SmallDB(60000, 41)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	runExact(t, sess, db, drillQuery("viz_state", drillP1))
	runExact(t, sess, db, drillQuery("viz_state", drillP1, drillP2))
	step3 := drillQuery("viz_state", drillP3, drillP2, drillP1)
	sibling := drillQuery("viz_dist", drillP1, drillP2, drillP3)
	sess.mu.Lock()
	for _, q := range []*query.Query{sibling, step3} {
		if _, err := sess.stateLocked(q, true); err != nil {
			sess.mu.Unlock()
			t.Fatal(err)
		}
	}
	sess.mu.Unlock()
	runExact(t, sess, db, step3)
	if n := sess.selectionRows(step3); n == 0 {
		t.Fatal("step 3, attached before the sibling that claimed its slot, evaluated p1∧p2 although step 2 recorded it")
	}
	runExact(t, sess, db, sibling)
	sess.WorkflowEnd()
}

// TestClaimedSlotIsNotClaimedTwice: a query whose exact predicate set a
// sibling has claimed, and not recorded yet, claims no second slot for it.
func TestClaimedSlotIsNotClaimedTwice(t *testing.T) {
	db := enginetest.SmallDB(30000, 41)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	runExact(t, sess, db, drillQuery("viz_state", drillP1))
	step2 := drillQuery("viz_state", drillP1, drillP2)
	sibling := drillQuery("viz_dist", drillP2, drillP1)
	sess.mu.Lock()
	for _, q := range []*query.Query{step2, sibling} {
		if _, err := sess.stateLocked(q, true); err != nil {
			sess.mu.Unlock()
			t.Fatal(err)
		}
	}
	sess.mu.Unlock()
	if got := sess.slotMatches(sibling); len(got) != 2 {
		t.Fatalf("slots %v after p1 and two queries of p1∧p2, want 2", got)
	}
	runExact(t, sess, db, step2)
	runExact(t, sess, db, sibling)
	sess.WorkflowEnd()
}

// TestSelectionEvictionLRU: the ninth distinct filter of a workflow evicts
// the least recently used slot — the first filter's — and every answer stays
// exact.
func TestSelectionEvictionLRU(t *testing.T) {
	db := enginetest.SmallDB(30000, 43)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	band := func(i int) query.Predicate {
		return query.Predicate{Field: "dep_delay", Op: query.OpRange, Lo: float64(i*5 - 20), Hi: float64(i*5 + 20)}
	}
	for i := 0; i < maxSelections+1; i++ {
		runExact(t, sess, db, drillQuery(fmt.Sprintf("v%d", i), band(i)))
	}
	if got := len(sess.slotMatches(drillQuery("v"))); got != maxSelections {
		t.Fatalf("%d slots after %d filters, want the cap %d", got, maxSelections+1, maxSelections)
	}
	first := drillQuery("v0", band(0), drillP3)
	runExact(t, sess, db, first)
	if n := sess.selectionRows(first); n != 0 {
		t.Fatalf("drill-down of the evicted first filter read %d rows", n)
	}
	last := drillQuery("v8", band(maxSelections), drillP3)
	runExact(t, sess, db, last)
	if n := sess.selectionRows(last); n == 0 {
		t.Fatal("drill-down of the newest filter read nothing")
	}
	sess.WorkflowEnd()
}

// TestSpeculationNeverClaimsSelections: speculation targets may read the
// session's selections but record none, so a link's dozens of single-bin
// filters cannot evict what the analyst's own queries recorded.
func TestSpeculationNeverClaimsSelections(t *testing.T) {
	db := enginetest.SmallDB(30000, 47)
	e := New(Config{Speculate: true})
	if err := e.Prepare(db, engine.Options{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	src := enginetest.CountByCarrier()
	runExact(t, sess, db, src)
	dst := drillQuery("viz_state", drillP2)
	runExact(t, sess, db, dst)
	sess.LinkVizs(src.VizName, dst.VizName)
	// A speculated drill-down, once issued, is exact.
	spec := drillQuery("viz_state", drillP2, query.Predicate{Field: "carrier", Op: query.OpIn, Values: []string{"UA"}})
	deadline := time.Now().Add(30 * time.Second)
	for sess.stateProgress(spec) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fmt.Sprint(sess.slotMatches(dst)); got != "[1/true]" {
		t.Fatalf("after speculation the slots relate to the linked viz's filter as %s, want its one slot [1/true]", got)
	}
	if n := sess.selectionRows(spec); n == 0 {
		t.Fatal("a speculation target read nothing from the recorded p2 selection")
	}
	runExact(t, sess, db, spec)
	sess.WorkflowEnd()
}

// TestDrillDownAcrossAppend: a batch appended between two drill-down steps
// leaves the recorded rows valid for the prefix view; the tail runs the
// predicates, and the answer is exact at the grown version.
func TestDrillDownAcrossAppend(t *testing.T) {
	db := enginetest.SmallDB(40000, 53)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 6}); err != nil {
		t.Fatal(err)
	}
	donor := enginetest.SmallDB(3000, 54)
	h := ingest.NewHarness(db, ingest.NewFixedSource(ingest.FromTable(donor.Fact, 0, 3000)), ingest.EngineSink{A: e})
	sess := e.OpenSession().(*session)
	defer sess.Close()
	sess.WorkflowStart()
	runExact(t, sess, db, drillQuery("viz_state", drillP1))
	if _, err := h.Ingest(3000); err != nil {
		t.Fatal(err)
	}
	step2 := drillQuery("viz_state", drillP1, drillP2)
	hdl, err := sess.StartQuery(step2)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, hdl, 30*time.Second)
	if res.Watermark != 43000 {
		t.Fatalf("step 2 answered at watermark %d, want 43000", res.Watermark)
	}
	gt, err := h.TruthAt(step2, res.Watermark)
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
		t.Fatalf("step 2 after an append: %v", err)
	}
	if n := sess.selectionRows(step2); n == 0 || n > 40000 {
		t.Fatalf("step 2 read %d rows from p1's selection of the 40000-row view", n)
	}
	sess.WorkflowEnd()
}

// TestSessionsNeverShareSelections: two sessions on one engine keep their
// own slots; a drill-down in one reads nothing the other recorded.
func TestSessionsNeverShareSelections(t *testing.T) {
	db := enginetest.SmallDB(30000, 59)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	a := e.OpenSession().(*session)
	defer a.Close()
	b := e.OpenSession().(*session)
	defer b.Close()
	a.WorkflowStart()
	b.WorkflowStart()
	runExact(t, a, db, drillQuery("viz_state", drillP1))
	step2 := drillQuery("viz_state", drillP1, drillP2)
	runExact(t, b, db, step2)
	if n := b.selectionRows(step2); n != 0 {
		t.Fatalf("session b read %d rows session a recorded", n)
	}
	runExact(t, a, db, step2)
	if n := a.selectionRows(step2); n == 0 {
		t.Fatal("session a's own drill-down read nothing")
	}
	a.WorkflowEnd()
	b.WorkflowEnd()
}
