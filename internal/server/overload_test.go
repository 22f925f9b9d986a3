package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/enginetest"
	"idebench/internal/query"
)

// burstQueries fires n distinct-signature queries back-to-back without
// waiting, returning every handle. The server reads frames far faster than
// queries complete, so inflight depth builds deterministically past any
// admission cap much smaller than n. Each query's distinct predicate is a
// range on distance that passes most rows (distances start at 67 miles), so
// every consumer folds real rows: a predicate that selects nothing costs a
// block-order lookup per block and would leave the burst no work to contend
// on.
func burstQueries(t *testing.T, sess *RemoteSession, base *query.Query, n int) []engine.Handle {
	t.Helper()
	handles := make([]engine.Handle, 0, n)
	for i := 0; i < n; i++ {
		q := *base
		q.Filter = base.Filter.And(query.Predicate{
			Field: "distance", Op: query.OpRange,
			Lo: float64(i) / 8, Hi: 1e6,
		})
		h, err := sess.StartQuery(&q)
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	return handles
}

func awaitHandles(t *testing.T, handles []engine.Handle) {
	t.Helper()
	for i, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("handle %d never completed", i)
		}
	}
}

type rejectedHandle interface {
	Rejected() (bool, time.Duration)
	RejectReason() string
}

// TestPerConnAdmissionReject pins session fairness: a connection bursting
// past its inflight share gets explicit reject frames with a retry hint,
// while admitted queries and the session itself stay healthy.
func TestPerConnAdmissionReject(t *testing.T) {
	f := newFixture(t, Options{MaxInflightPerConn: 4})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()

	handles := burstQueries(t, sess, firstQuery(t, f.flows[0]), 200)
	awaitHandles(t, handles)

	rejected, completed := 0, 0
	for _, h := range handles {
		rh := h.(rejectedHandle)
		if rej, retry := rh.Rejected(); rej {
			rejected++
			if retry <= 0 {
				t.Fatalf("per-conn rejection carries no retry hint")
			}
			if !strings.Contains(rh.RejectReason(), "session query limit") {
				t.Fatalf("reject reason %q, want session query limit", rh.RejectReason())
			}
			if h.Snapshot() != nil {
				t.Fatal("rejected query delivered a snapshot")
			}
			continue
		}
		if snap := h.Snapshot(); snap != nil && snap.Complete {
			completed++
		}
	}
	if rejected == 0 {
		t.Fatal("burst past MaxInflightPerConn=4 produced no rejections")
	}
	if completed == 0 {
		t.Fatal("no query was admitted and completed during the burst")
	}
	if got := f.srv.Counters().RejectedPerConn.Load(); got != int64(rejected) {
		t.Fatalf("RejectedPerConn counter %d, client saw %d", got, rejected)
	}
	if got := rem.Stats().Rejected.Load(); got != int64(rejected) {
		t.Fatalf("client Rejected stat %d, want %d", got, rejected)
	}

	// The defining property of MsgReject: the session is NOT poisoned. A
	// fresh query after the burst completes normally.
	h, err := sess.StartQuery(firstQuery(t, f.flows[0]))
	if err != nil {
		t.Fatalf("post-burst query refused: %v", err)
	}
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("post-burst query never completed")
	}
	if rej, _ := h.(rejectedHandle).Rejected(); rej {
		t.Fatal("post-burst query rejected on an idle session")
	}
	if snap := h.Snapshot(); snap == nil || !snap.Complete {
		t.Fatal("post-burst query did not deliver a complete final")
	}
}

// TestGlobalAdmissionReject pins the server-wide cap with its distinct
// reject reason.
func TestGlobalAdmissionReject(t *testing.T) {
	f := newFixture(t, Options{MaxInflight: 4, MaxInflightPerConn: 10_000})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()

	handles := burstQueries(t, sess, firstQuery(t, f.flows[0]), 200)
	awaitHandles(t, handles)

	rejected := 0
	for _, h := range handles {
		rh := h.(rejectedHandle)
		if rej, _ := rh.Rejected(); rej {
			rejected++
			if !strings.Contains(rh.RejectReason(), "server query limit") {
				t.Fatalf("reject reason %q, want server query limit", rh.RejectReason())
			}
		}
	}
	if rejected == 0 {
		t.Fatal("burst past MaxInflight=4 produced no rejections")
	}
	if f.srv.Counters().RejectedOverload.Load() != int64(rejected) {
		t.Fatalf("RejectedOverload %d, client saw %d",
			f.srv.Counters().RejectedOverload.Load(), rejected)
	}
	// Admission released its slots: the gauge returns to zero.
	waitFor(t, 10*time.Second, "inflight gauge to drain", func() bool {
		return f.srv.inflight.Load() == 0
	})
}

// TestHandshakeRejectClassification pins the two handshake rejection
// flavors: over-capacity is retryable with a Retry-After hint, draining is
// terminal.
func TestHandshakeRejectClassification(t *testing.T) {
	f := newFixture(t, Options{MaxConns: 1})
	rem, err := NewRemote(f.addr) // takes the only slot
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = NewRemote(f.addr)
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("over-capacity dial error %v, want HandshakeError", err)
	}
	if he.Status != http.StatusServiceUnavailable || he.Reason != ReasonOverloaded {
		t.Fatalf("handshake error %+v, want 503 %s", he, ReasonOverloaded)
	}
	if he.RetryAfter <= 0 {
		t.Fatal("over-capacity rejection carries no Retry-After")
	}
	if !IsRetryable(err) {
		t.Fatal("over-capacity rejection must be retryable")
	}
	if f.srv.Counters().ConnsRejected.Load() == 0 {
		t.Fatal("ConnsRejected not counted")
	}

	// Drain the server, then dial again: same status, different reason, and
	// the client must classify it terminal.
	f2 := newFixture(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f2.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = NewRemote(f2.addr)
	if !errors.As(err, &he) {
		t.Fatalf("draining dial error %v, want HandshakeError", err)
	}
	if he.Reason != ReasonDraining {
		t.Fatalf("draining reason %q, want %s", he.Reason, ReasonDraining)
	}
	if IsRetryable(err) {
		t.Fatal("draining rejection must be terminal")
	}
}

// TestDeadlineSheddingMarksFinal pins deadline-aware shedding: queries
// carrying a deadline hint that blow their late budget are cancelled
// server-side and their finals arrive marked shed.
func TestDeadlineSheddingMarksFinal(t *testing.T) {
	f := newFixture(t, Options{
		MaxInflight: 100_000, MaxInflightPerConn: 100_000,
		PollInterval: 200 * time.Microsecond,
	})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()
	sess.SetQueryDeadline(time.Millisecond) // late budget = 2ms at the default factor

	// 300 concurrent distinct-signature consumers contend on the shared
	// scan, so individual completion times far exceed the 2ms budget.
	handles := burstQueries(t, sess, firstQuery(t, f.flows[0]), 300)
	awaitHandles(t, handles)

	shed := 0
	for _, h := range handles {
		if h.(interface{ Shed() bool }).Shed() {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no query was shed despite a 1ms deadline under a 300-query burst")
	}
	if got := f.srv.Counters().ShedLate.Load(); got != int64(shed) {
		t.Fatalf("ShedLate counter %d, client saw %d shed finals", got, shed)
	}

	// Shedding is not an error: the session survives and an undeadlined
	// follow-up completes normally.
	sess.SetQueryDeadline(0)
	h, err := sess.StartQuery(firstQuery(t, f.flows[0]))
	if err != nil {
		t.Fatalf("post-shed query refused: %v", err)
	}
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("post-shed query never completed")
	}
	if snap := h.Snapshot(); snap == nil || !snap.Complete {
		t.Fatal("post-shed query did not complete")
	}
	if h.(interface{ Shed() bool }).Shed() {
		t.Fatal("undeadlined query was shed")
	}
}

// liveness shortens the server's ping interval and idle timeout.
func liveness(ping, idle time.Duration) func(*Server) {
	return func(s *Server) { s.pingInterval, s.idleTimeout = ping, idle }
}

// TestIdleTimeoutReleasesSilentClient is the liveness regression: a client
// that goes silent without any TCP teardown (no FIN, no RST — it just stops
// reading and writing) must be disconnected by the ping/idle deadline and
// its engine resources released.
func TestIdleTimeoutReleasesSilentClient(t *testing.T) {
	f := newFixture(t, Options{}, liveness(20*time.Millisecond, 100*time.Millisecond))
	ws, err := dialWS("ws://"+f.addr+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, _, err := ws.ReadMessage(); err != nil { // hello
		t.Fatal(err)
	}
	// Issue real queries so the connection holds engine state, then go
	// completely silent: no reads (so no transparent pong replies), no
	// writes, socket left open.
	for i := 0; i < 3; i++ {
		q := *firstQuery(t, f.flows[0])
		q.Filter = q.Filter.And(query.Predicate{
			Field: q.Bins[0].Field, Op: query.OpIn, Values: []string{fmt.Sprintf("silent-%d", i)},
		})
		data, err := encodeMsg(&ClientMsg{Type: MsgQuery, ID: int64(i + 1), Query: &q})
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.WriteMessage(data); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "server to see the connection", func() bool { return f.srv.ConnCount() == 1 })

	waitFor(t, 10*time.Second, "idle disconnect", func() bool {
		return f.srv.Counters().IdleDisconnects.Load() >= 1
	})
	waitFor(t, 10*time.Second, "connection teardown", func() bool { return f.srv.ConnCount() == 0 })
	waitFor(t, 10*time.Second, "scan consumers released", func() bool {
		return f.eng.ActiveScanConsumers() == 0
	})
}

// TestResponsiveClientSurvivesIdleTimeout is the other half of liveness: a
// client with no application traffic but a live read loop answers pings and
// must NOT be disconnected.
func TestResponsiveClientSurvivesIdleTimeout(t *testing.T) {
	f := newFixture(t, Options{}, liveness(15*time.Millisecond, 60*time.Millisecond))
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()
	// Touch the server once so the connection exists, then idle for several
	// idle-timeout windows.
	h, err := sess.StartQuery(firstQuery(t, f.flows[0]))
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	time.Sleep(300 * time.Millisecond)

	if got := f.srv.Counters().IdleDisconnects.Load(); got != 0 {
		t.Fatalf("responsive client idle-disconnected %d times", got)
	}
	h2, err := sess.StartQuery(firstQuery(t, f.flows[0]))
	if err != nil {
		t.Fatalf("query after idle window: %v", err)
	}
	select {
	case <-h2.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("query after idle window never completed")
	}
	if snap := h2.Snapshot(); snap == nil || !snap.Complete {
		t.Fatal("query after idle window did not complete")
	}
}

// TestHealthzOverloadCounters covers the extended health payload.
func TestHealthzOverloadCounters(t *testing.T) {
	f := newFixture(t, Options{MaxInflightPerConn: 2})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()
	handles := burstQueries(t, sess, firstQuery(t, f.flows[0]), 50)
	awaitHandles(t, handles)

	h, raw := getHealth(t, f.hsrv.URL)
	if h.Admission.Admitted == 0 {
		t.Fatal("healthz shows no admitted queries after a burst")
	}
	if h.Admission.RejectedPerConn == 0 {
		t.Fatal("healthz shows no per-conn rejections after a burst past the cap")
	}
	if h.Watermark != int64(f.db.Fact.NumRows()) {
		t.Fatalf("healthz watermark %d, want %d", h.Watermark, f.db.Fact.NumRows())
	}
	if _, ok := raw["scan_consumers"]; !ok {
		t.Fatal("healthz omits scan_consumers for a scan-observing engine")
	}
}

// TestRejectionLeavesSpeculationAttached pins that an admission rejection is
// only a reject frame: it changes no engine state. A speculating session
// links two vizs (speculation targets attach), holds its single query slot
// with a foreground query — which suspends the targets in the shared scan —
// and has one more query rejected; the attached scan consumers must be
// exactly the ones there before the rejection.
func TestRejectionLeavesSpeculationAttached(t *testing.T) {
	db := enginetest.SmallDB(1_000_000, 7)
	eng := progressive.New(progressive.Config{Speculate: true})
	if err := eng.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{Rows: int64(db.Fact.NumRows()), MaxInflightPerConn: 1, PollInterval: time.Millisecond})
	hsrv := httptest.NewServer(srv)
	defer hsrv.Close()
	rem, err := NewRemote(strings.TrimPrefix(hsrv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()

	start := func(q *query.Query) engine.Handle {
		t.Helper()
		h, err := sess.StartQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// The source viz has one bin per minute of departure delay, so the link
	// speculates the maximum number of selections.
	src := enginetest.AvgDelayByDistance()
	src.VizName = "viz_delay"
	src.Bins = []query.Binning{{Field: "dep_delay", Kind: dataset.Quantitative, Width: 1}}
	dst := enginetest.AvgDelayByDistance()
	awaitHandles(t, []engine.Handle{start(src)})
	awaitHandles(t, []engine.Handle{start(dst)})

	// The foreground query bins by both vizs' binnings, so compiling it
	// builds no code column and the targets never run unsuspended.
	fg := *dst
	fg.VizName = "viz_fg"
	fg.Bins = append([]query.Binning{src.Bins[0]}, dst.Bins...)
	fg.Aggs = []query.Aggregate{{Func: query.Avg, Field: "dep_delay"}, {Func: query.Avg, Field: "arr_delay"}, {Func: query.Count}}
	sess.LinkVizs(src.VizName, dst.VizName)
	hold := start(&fg)
	waitFor(t, 10*time.Second, "foreground query admitted", func() bool { return srv.Counters().Admitted.Load() == 3 })
	before := eng.ActiveScanConsumers()

	rejected := start(enginetest.CountByCarrier())
	awaitHandles(t, []engine.Handle{rejected})
	after := eng.ActiveScanConsumers()
	if isDone(hold) || before < 2 {
		t.Skip("foreground query finished, or speculation drained, before the rejection landed")
	}
	if rej, _ := rejected.(rejectedHandle).Rejected(); !rej {
		t.Fatal("a second query on a one-slot session was not rejected")
	}
	if after != before {
		t.Fatalf("scan consumers %d before the rejection, %d after: a rejection changed engine state", before, after)
	}
	awaitHandles(t, []engine.Handle{hold})
}

func isDone(h engine.Handle) bool {
	select {
	case <-h.Done():
		return true
	default:
		return false
	}
}
