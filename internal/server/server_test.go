package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// testRows keeps end-to-end fixtures fast while leaving progressive queries
// enough rows to stream intermediate snapshots before completing.
const testRows = 40_000

type fixture struct {
	db    *dataset.Database
	eng   *progressive.Engine
	srv   *Server
	hsrv  *httptest.Server
	addr  string
	gt    *groundtruth.Cache
	flows []*workflow.Workflow
}

// newFixture prepares a progressive engine on a small generated dataset and
// serves it on a real loopback TCP listener. Each tune runs on the server
// before it starts serving.
func newFixture(t *testing.T, opts Options, tune ...func(*Server)) *fixture {
	return newFixtureRows(t, opts, testRows, tune...)
}

func newFixtureRows(t *testing.T, opts Options, rows int, tune ...func(*Server)) *fixture {
	t.Helper()
	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := progressive.New(progressive.Config{})
	if err := eng.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	opts.Rows = int64(db.Fact.NumRows())
	opts.Seed = 1
	if opts.PollInterval == 0 {
		// Stream aggressively in tests so even fast scans yield intermediates.
		opts.PollInterval = 100 * time.Microsecond
	}
	srv := New(eng, opts)
	for _, f := range tune {
		f(srv)
	}
	hsrv := httptest.NewServer(srv)
	t.Cleanup(hsrv.Close)

	all, err := core.GenerateWorkflows(db, 2, 6, 101)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		db:    db,
		eng:   eng,
		srv:   srv,
		hsrv:  hsrv,
		addr:  strings.TrimPrefix(hsrv.URL, "http://"),
		gt:    groundtruth.New(db),
		flows: all,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteReplaySingleUser replays one workflow through driver.Replay over
// the WebSocket client — the driver is byte-for-byte the in-process one; only
// the engine behind it is remote.
func TestRemoteReplaySingleUser(t *testing.T) {
	// A 40k-row scan is ~100µs: poll an order of magnitude finer, or a
	// six-query workflow now and then completes without one intermediate.
	f := newFixture(t, Options{PollInterval: 10 * time.Microsecond})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if rem.Name() != "progressive" {
		t.Fatalf("remote name %q, want progressive", rem.Name())
	}
	if rem.Rows() != int64(f.db.Fact.NumRows()) {
		t.Fatalf("remote rows %d, want %d", rem.Rows(), f.db.Fact.NumRows())
	}
	if rem.Seed() != 1 {
		t.Fatalf("remote seed %d, want 1", rem.Seed())
	}
	// Prepare is the ground-truth handshake: matching dataset passes, a
	// mismatched seed is refused before any replay could record garbage.
	if err := rem.Prepare(f.db, engine.Options{Seed: 1}); err != nil {
		t.Fatalf("matching Prepare: %v", err)
	}
	if err := rem.Prepare(f.db, engine.Options{Seed: 2}); err == nil {
		t.Fatal("mismatched seed accepted")
	}

	res, err := driver.Replay(rem, f.gt, driver.Config{
		TimeRequirement: 2 * time.Second, // the assertion is 0 violations; queries finishing early cost nothing
		ThinkTime:       time.Millisecond,
		DataSizeLabel:   "40k",
	}, f.flows[:1])
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range recs {
		if rec.Metrics.TRViolated {
			t.Errorf("query %s violated the TR over loopback", rec.VizName)
		}
	}
	if got := rem.Stats().Final.Load(); got < int64(len(recs)) {
		t.Errorf("%d final frames for %d queries", got, len(recs))
	}
	if rem.Stats().Intermediate.Load() == 0 {
		t.Error("no intermediate snapshot frames streamed")
	}
}

// TestRemoteMultiRunner8Users is the acceptance scenario: driver.Replay
// replays 8 workflows as 8 concurrent users through 8 WebSocket sessions
// against one served progressive engine, with zero deadline violations.
func TestRemoteMultiRunner8Users(t *testing.T) {
	f := newFixture(t, Options{})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	res, err := driver.Replay(rem, f.gt, driver.Config{
		TimeRequirement: 3 * time.Second, // the assertion is 0 violations, so leave CI headroom
		ThinkTime:       time.Millisecond,
		DataSizeLabel:   "40k",
		Users:           8,
	}, f.flows[:8])
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != 8 {
		t.Fatalf("ran %d users, want 8", res.Users)
	}
	violations := 0
	for _, rec := range res.Records {
		if rec.Metrics.TRViolated {
			violations++
		}
	}
	if violations != 0 {
		t.Errorf("%d deadline violations across %d queries, want 0", violations, len(res.Records))
	}
	// 8 users + the hello probe = 9 sessions.
	if got := rem.Stats().Sessions.Load(); got != 9 {
		t.Errorf("%d sessions opened, want 9", got)
	}
	if rem.Stats().Intermediate.Load() == 0 {
		t.Error("no intermediate snapshot frames streamed")
	}
	waitFor(t, 5*time.Second, "sessions to close", func() bool { return f.srv.ConnCount() == 1 })
}

// pumpQueries issues queries with distinct signatures (each gets a fresh
// shared-scan consumer) until stop closes, returning every handle obtained.
// Vectorized scans over a small test table finish in well under a
// millisecond, so a single query cannot reliably be caught mid-flight; a
// stream of them guarantees the scan is busy when the test acts.
func pumpQueries(t *testing.T, sess *RemoteSession, base *query.Query, stop <-chan struct{}) func() []engine.Handle {
	t.Helper()
	var mu sync.Mutex
	var handles []engine.Handle
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := *base
			// A never-matching IN predicate on the bin field makes each
			// query's signature unique without changing schema validity.
			q.Filter = base.Filter.And(query.Predicate{
				Field: base.Bins[0].Field, Op: query.OpIn,
				Values: []string{fmt.Sprintf("pump-%d", i)},
			})
			h, err := sess.StartQuery(&q)
			if err != nil {
				return // session closed under us: expected during teardown
			}
			mu.Lock()
			handles = append(handles, h)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() []engine.Handle {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return handles
	}
}

// TestDisconnectReleasesSharedScanConsumer is the lifecycle guarantee: a
// client vanishing mid-progressive-query must release its session and
// detach its consumers from the shared scan, with no reaper involved.
func TestDisconnectReleasesSharedScanConsumer(t *testing.T) {
	f := newFixture(t, Options{PollInterval: time.Millisecond})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	sess := rem.OpenSession().(*RemoteSession)
	stop := make(chan struct{})
	collect := pumpQueries(t, sess, firstQuery(t, f.flows[0]), stop)

	// Wait until queries are demonstrably attached to the scan, then drop
	// the connection abruptly mid-stream — no cancel, no workflow_end.
	waitFor(t, 10*time.Second, "consumers to attach", func() bool { return f.eng.ActiveScanConsumers() > 0 })
	sess.Close()
	close(stop)
	handles := collect()

	waitFor(t, 10*time.Second, "consumers to detach", func() bool { return f.eng.ActiveScanConsumers() == 0 })
	waitFor(t, 10*time.Second, "server to forget the connection", func() bool { return f.srv.ConnCount() == 1 })
	// Every local handle must have completed too (failed handles close
	// Done), so no driver goroutine would block on the dead session.
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("handle still pending after disconnect")
		}
	}
}

// firstQuery extracts the first query a workflow issues.
func firstQuery(t *testing.T, w *workflow.Workflow) *query.Query {
	t.Helper()
	g := workflow.NewGraph()
	for _, in := range w.Interactions {
		eff, err := g.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(eff.Queries) > 0 {
			return eff.Queries[0]
		}
	}
	t.Fatal("workflow issued no queries")
	return nil
}

// TestDrainCompletesInFlightFinals asserts Shutdown semantics: queries in
// flight when the drain starts still deliver their final snapshot, and new
// queries are refused.
func TestDrainCompletesInFlightFinals(t *testing.T) {
	f := newFixture(t, Options{PollInterval: time.Millisecond})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()
	stop := make(chan struct{})
	collect := pumpQueries(t, sess, firstQuery(t, f.flows[0]), stop)
	// Only queries the server has actually started are "in flight"; a drain
	// beginning before a query frame is read refuses it instead.
	waitFor(t, 10*time.Second, "queries to attach", func() bool { return f.eng.ActiveScanConsumers() > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	wg.Wait()
	close(stop)
	handles := collect()

	// Every started query delivered a final; pump queries refused during the
	// drain completed with nil snapshots. At least one must have run to
	// completion (the one the attach wait observed).
	complete := 0
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("handle still pending after drain")
		}
		if snap := h.Snapshot(); snap != nil && snap.Complete {
			complete++
		}
	}
	if complete == 0 {
		t.Error("no in-flight query delivered a complete final snapshot during drain")
	}
	if got := rem.Stats().Final.Load(); got == 0 {
		t.Error("no final frame delivered during drain")
	}

	// A drained server refuses new work: fresh queries on a live session
	// fail (connection was closed server-side).
	waitFor(t, 10*time.Second, "connections to close", func() bool { return f.srv.ConnCount() == 0 })
}

// TestConnLiveUntilReaderExits pins the connection lifecycle: a connection
// torn down from the write side (a failed ping after its client vanished)
// still counts as live while its reader is inside an ingest apply, and a
// drain flushes the durable log only after that apply has returned.
func TestConnLiveUntilReaderExits(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	dur := &fakeDurable{}
	apply := func(*ingest.Batch) (int64, error) {
		close(entered)
		<-release
		return 0, nil
	}
	f := newFixture(t, Options{Apply: apply, Durable: dur}, liveness(5*time.Millisecond, time.Minute))
	ws, err := dialWS("ws://"+f.addr+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.ReadMessage(); err != nil { // hello
		t.Fatal(err)
	}
	if err := ws.WriteBinary(ingest.FromTable(f.db.Fact, 0, 10).AppendBinary(make([]byte, wsHeadroom))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("apply never called")
	}
	// The client vanishes; its reader, parked in apply, cannot notice, but
	// the next failed ping tears the connection down.
	ws.Close()
	f.srv.mu.Lock()
	var c *serverConn
	for k := range f.srv.conns {
		c = k
	}
	f.srv.mu.Unlock()
	if c == nil {
		t.Fatal("connection already forgotten while its apply is in flight")
	}
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("failed ping did not tear the connection down")
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if n := f.srv.ConnCount(); n != 1 {
			t.Fatalf("ConnCount %d while the reader is still applying, want 1", n)
		}
	}

	done := make(chan error, 1)
	go func() { done <- f.srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) while an apply was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := dur.flushes.Load(); n != 0 {
		t.Fatalf("durable log flushed %d times while an apply was in flight", n)
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return after the apply finished")
	}
	if n := dur.flushes.Load(); n != 1 {
		t.Fatalf("durable log flushed %d times, want 1", n)
	}
	if n := f.srv.ConnCount(); n != 0 {
		t.Fatalf("ConnCount %d after the reader exited, want 0", n)
	}
}

// TestMaxConns asserts the connection limit rejects the excess session
// before it touches the engine.
func TestMaxConns(t *testing.T) {
	f := newFixture(t, Options{MaxConns: 1})
	rem, err := NewRemote(f.addr) // uses the single slot
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession()
	defer sess.Close()
	if _, err := sess.StartQuery(firstQuery(t, f.flows[0])); err == nil {
		t.Fatal("session over the connection limit started a query")
	}
}

// TestHealthz covers the health endpoint shape.
func TestHealthz(t *testing.T) {
	f := newFixture(t, Options{})
	h, _ := getHealth(t, f.hsrv.URL)
	if h.Engine != "progressive" || h.Rows != int64(f.db.Fact.NumRows()) || h.Version != ProtoVersion || h.Draining {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServerErrorFrame asserts a bad query produces an error frame scoped to
// its id, not a dropped connection: later queries on the same session work.
func TestServerErrorFrame(t *testing.T) {
	f := newFixture(t, Options{})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()

	bad := firstQuery(t, f.flows[0])
	badCopy := *bad
	badCopy.Table = "no_such_table"
	h, err := sess.StartQuery(&badCopy)
	if err != nil {
		t.Fatalf("local validation rejected a structurally valid query: %v", err)
	}
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("error frame never completed the handle")
	}
	if h.Snapshot() != nil {
		t.Error("failed query delivered a snapshot")
	}
	if rem.Stats().Errors.Load() == 0 {
		t.Error("no error frame counted")
	}
	if sess.Err() == nil || !strings.Contains(sess.Err().Error(), "unknown table") {
		t.Errorf("session error = %v, want unknown table", sess.Err())
	}

	// A session that reported a per-query error refuses further queries so a
	// replay fails loudly instead of recording garbage.
	if _, err := sess.StartQuery(bad); err == nil {
		t.Error("errored session accepted another query")
	}
}
