package server

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/faultnet"
)

// deadAddr returns a loopback address nothing listens on: dials get an
// immediate connection-refused (a retryable net.Error), exactly what a
// kill -9'd primary looks like to a client.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// terminalAddr returns the address of a server whose /ws handshake fails
// terminally (HTTP 404 — not a capacity rejection, retrying cannot help).
func terminalAddr(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestDialNextAddressOnTerminalFailure: a terminal handshake failure at one
// address must advance the rotation instead of giving up, because the same
// tier is reachable at the alternates; only a full lap of terminal failures
// is fatal.
func TestDialNextAddressOnTerminalFailure(t *testing.T) {
	f := newFixture(t, Options{})
	rem, err := NewRemoteWithOptions(terminalAddr(t), RemoteOptions{
		Reconnect: true,
		Addrs:     []string{f.addr},
	})
	if err != nil {
		t.Fatalf("dial with live alternate: %v", err)
	}
	defer rem.Close()
	if rem.Name() != "progressive" {
		t.Fatalf("connected engine %q, want progressive", rem.Name())
	}
	if got := rem.currentAddr(); got != f.addr {
		t.Errorf("rotation settled on %s, want the live alternate %s", got, f.addr)
	}
}

// TestDialTerminalFailureWithoutAlternates preserves the single-address
// contract: a terminal failure returns at once, no retries.
func TestDialTerminalFailureWithoutAlternates(t *testing.T) {
	start := time.Now()
	if _, err := NewRemoteWithOptions(terminalAddr(t), RemoteOptions{Reconnect: true}); err == nil {
		t.Fatal("terminal handshake failure did not fail the dial")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("terminal single-address dial took %v; should not have retried", d)
	}
}

// TestDialNextAddressOnRefusedConnection: a dead primary (connection
// refused) with a live standby in the address list must connect to the
// standby under the Reconnect policy.
func TestDialNextAddressOnRefusedConnection(t *testing.T) {
	f := newFixture(t, Options{})
	rem, err := NewRemoteWithOptions(deadAddr(t), RemoteOptions{
		Reconnect: true,
		Addrs:     []string{f.addr},
	})
	if err != nil {
		t.Fatalf("dial with dead primary, live standby: %v", err)
	}
	defer rem.Close()
	if rem.Rows() != testRows {
		t.Fatalf("standby hello rows = %d, want %d", rem.Rows(), testRows)
	}
}

// TestHelloPeersMergeIntoRotation: a client that dialed only the primary
// learns the standbys from the hello Peers list.
func TestHelloPeersMergeIntoRotation(t *testing.T) {
	standby := "127.0.0.1:39999"
	f := newFixture(t, Options{Peers: []string{standby}})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	addrs := rem.Addrs()
	if len(addrs) != 2 || addrs[0] != f.addr || addrs[1] != standby {
		t.Fatalf("rotation after hello = %v, want [%s %s]", addrs, f.addr, standby)
	}
	// Re-learning the same peers must not duplicate entries.
	rem.mergePeers([]string{standby, f.addr, ""})
	if got := rem.Addrs(); len(got) != 2 {
		t.Fatalf("rotation grew duplicates: %v", got)
	}
}

// TestQueryDuringReconnectWindow pins down the frame-loss race of
// coordinator failover: a query started AFTER the connection died but
// BEFORE the redial lands must go out on the replacement connection. The
// old send path wrote to whatever ws pointed at — the dead socket — where
// the write either errored (RST) or, worse, succeeded silently into the
// kernel buffer (FIN), orphaning the handle forever. Senders now wait out
// the reconnect, so the query must neither fail nor vanish.
func TestQueryDuringReconnectWindow(t *testing.T) {
	primary := newFixture(t, Options{})
	standby := newFixture(t, Options{})

	px, err := faultnet.New(primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	// The standby's rotation slot points at a port nothing listens on YET:
	// the redial loop churns through refused connections on every address
	// while the test holds the session in the reconnect window.
	lateAddr := deadAddr(t)

	rem, err := NewRemoteWithOptions(px.Addr(), RemoteOptions{
		Reconnect:  true,
		MaxRetries: 50,
		BackoffMax: 200 * time.Millisecond,
		Addrs:      []string{lateAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(firstQuery(t, primary.flows[0]))
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if h.Snapshot() == nil {
		t.Fatal("primary query returned no snapshot")
	}

	// Kill the primary and give the read loop time to observe the loss and
	// enter the redial loop; with both addresses refusing, the session is
	// now pinned mid-reconnect.
	px.ResetAll()
	px.Close()
	time.Sleep(250 * time.Millisecond)

	type started struct {
		h   engine.Handle
		err error
	}
	ch := make(chan started, 1)
	go func() {
		h, err := sess.StartQuery(firstQuery(t, standby.flows[0]))
		ch <- started{h, err}
	}()
	select {
	case s := <-ch:
		// Nothing is listening anywhere, so an immediate return means the
		// frame went into (or bounced off) the dead connection.
		t.Fatalf("mid-reconnect StartQuery returned early: handle=%v err=%v", s.h, s.err)
	case <-time.After(300 * time.Millisecond):
	}

	// The standby comes up at the reserved address (a plain forwarder to a
	// live fixture); the redial lands, and the blocked query goes out on
	// the NEW connection.
	ln, err := net.Listen("tcp", lateAddr)
	if err != nil {
		t.Fatalf("binding late standby address: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", standby.addr)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }() //nolint:errcheck
			go func() { io.Copy(c, up); c.Close() }()  //nolint:errcheck
		}
	}()

	var s started
	select {
	case s = <-ch:
	case <-time.After(15 * time.Second):
		t.Fatal("StartQuery still blocked after the standby came up")
	}
	if s.err != nil {
		t.Fatalf("query started mid-reconnect failed: %v", s.err)
	}
	select {
	case <-s.h.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("query started mid-reconnect never completed on the standby")
	}
	if snap := s.h.Snapshot(); snap == nil || !snap.Complete {
		t.Fatalf("mid-reconnect query snapshot = %+v, want complete", snap)
	}
	if rem.Stats().Reconnects.Load() == 0 {
		t.Fatal("session never recorded the reconnect")
	}
}

// TestReconnectToStandbyMidReplay is the client half of coordinator
// failover: a session whose server dies mid-replay redials through the
// address rotation, lands on the standby, and the shared watermark never
// moves backwards even though the standby's hello states fewer rows than
// the client had already confirmed.
func TestReconnectToStandbyMidReplay(t *testing.T) {
	primary := newFixture(t, Options{})
	// The standby intentionally states a LOWER row count in its hello: the
	// monotone watermark (casMax) must keep the higher confirmed version.
	standby := newFixtureRows(t, Options{}, testRows/2)

	// The primary is reached through a fault-injection proxy so the test can
	// kill it — listener and live connections both — the way kill -9 does;
	// httptest's Close leaves hijacked WebSocket connections alive.
	px, err := faultnet.New(primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	rem, err := NewRemoteWithOptions(px.Addr(), RemoteOptions{
		Reconnect: true,
		Addrs:     []string{standby.addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()

	// Replay against the primary first so the session is demonstrably live.
	h, err := sess.StartQuery(firstQuery(t, primary.flows[0]))
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if h.Snapshot() == nil {
		t.Fatal("primary query returned no snapshot")
	}
	wmBefore := rem.Watermark()
	if wmBefore != testRows {
		t.Fatalf("watermark before failover = %d, want %d", wmBefore, testRows)
	}

	// Kill the primary: the proxy resets every live connection and stops
	// accepting, so redials of the primary address get connection-refused.
	px.ResetAll()
	px.Close()

	// The session's read loop sees the loss, redials through the rotation
	// and lands on the standby.
	waitFor(t, 15*time.Second, "session to reconnect to the standby", func() bool {
		return rem.Stats().Reconnects.Load() >= 1
	})
	if got := rem.Watermark(); got < wmBefore {
		t.Errorf("watermark moved backwards across failover: %d -> %d", wmBefore, got)
	}

	// The replay continues on the standby: a fresh query on the SAME session
	// completes against the standby's engine.
	h2, err := sess.StartQuery(firstQuery(t, standby.flows[0]))
	if err != nil {
		t.Fatalf("query after failover: %v", err)
	}
	select {
	case <-h2.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("post-failover query never completed")
	}
	if snap := h2.Snapshot(); snap == nil || !snap.Complete {
		t.Fatalf("post-failover query snapshot = %+v, want complete", h2.Snapshot())
	}
}
