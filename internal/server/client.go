package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// DialTimeout bounds the TCP connect + WebSocket handshake of one session.
const DialTimeout = 10 * time.Second

// FrameStats counts protocol frames across every session of one Remote, so
// a replay can assert the stream actually streamed (at least one
// intermediate before each final) instead of degenerating into a single
// response per query.
type FrameStats struct {
	Intermediate atomic.Int64 // non-final snapshot frames received
	Final        atomic.Int64 // final snapshot frames received
	Errors       atomic.Int64 // error frames received
	Sessions     atomic.Int64 // sessions (connections) opened
	Ingest       atomic.Int64 // ingest (watermark broadcast) frames received
	Rejected     atomic.Int64 // reject (admission-control) frames received
	Reconnects   atomic.Int64 // successful session reconnects
}

// RemoteOptions tunes client-side resilience.
type RemoteOptions struct {
	// Reconnect enables transparent redial: when a session's connection
	// fails retryably (network fault, idle timeout, capacity close — see
	// IsRetryable), the session re-establishes itself with exponential
	// backoff + jitter and resumes at the last known watermark. In-flight
	// queries at the moment of the loss complete with whatever snapshot they
	// had (their server-side state died with the connection); subsequent
	// queries run on the new connection. Off by default: benchmark replays
	// must fail loudly, not paper over a flaky setup.
	Reconnect bool
	// MaxRetries caps consecutive redial attempts (default 5).
	MaxRetries int
	// BackoffMax caps the backoff growth (default 2s): the first retry
	// waits backoffBase, doubled per attempt up to BackoffMax, each sleep
	// jittered uniformly over [d/2, d] so a rejected fleet does not retry in
	// lockstep. A server Retry-After hint raises the floor.
	BackoffMax time.Duration
	// Partials asks the server to stream raw accumulator state
	// (engine.Partial) in place of rendered results, on every snapshot frame
	// of every query on every session. Scatter-gather coordinators set it;
	// handles then implement engine.PartialSnapshotter with the freshest
	// streamed partial, and their Snapshot stays nil — rendering is the
	// coordinator's fold — unless the served engine has no partials to give
	// and answers with rendered results after all.
	Partials bool
	// Addrs lists alternate addresses the same serving tier is reachable at
	// (warm standbys of the primary passed to NewRemoteWithOptions). Dials
	// and redials walk the combined list round-robin: a failed attempt —
	// retryable or terminal — advances to the next address, so a client
	// pointed at a dead primary finds the standby that took over instead of
	// hammering a corpse. The server's hello Peers list is merged in, so a
	// client that dialed only the primary still learns the standbys.
	Addrs []string
}

// backoffBase is the first redial delay.
const backoffBase = 50 * time.Millisecond

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// IsRetryable classifies a connection-level failure: true when a fresh
// connection attempt may succeed (overload rejection with a hint, idle
// timeout, network fault), false when retrying cannot help (server
// draining, protocol violation, version mismatch).
func IsRetryable(err error) bool {
	var ce *CloseError
	if errors.As(err, &ce) {
		switch ce.Code {
		case CloseIdleTimeout, CloseTryLater:
			return true
		default:
			// CloseGoingAway (drain) and CloseOverflow (abuse) are terminal.
			return false
		}
	}
	var he *HandshakeError
	if errors.As(err, &he) {
		return he.Status == http.StatusServiceUnavailable && he.Reason != ReasonDraining
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true // timeouts, resets, refused connections
	}
	// An abrupt mid-frame cut surfaces as EOF before the close handshake.
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// retryAfterHint extracts the server's stated backoff from a rejection, 0
// when it stated none.
func retryAfterHint(err error) time.Duration {
	var he *HandshakeError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// jitterSeq disambiguates jitter seeds of Remotes created within the same
// clock tick (a fleet spinning up its clients in a tight loop).
var jitterSeq atomic.Int64

// newJitterRand seeds one client's private jitter source. Backoff jitter
// must NOT come from the shared global math/rand sequence: a fleet of
// clients rejected by the same overloaded server would draw from
// identically-seeded generators and sleep the same "jittered" delays,
// re-arriving in lockstep — the thundering herd the jitter exists to break.
func newJitterRand() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano() ^ jitterSeq.Add(1)<<32))
}

// jitter spreads d uniformly over [d/2, d] using the Remote's own seeded
// source (guarded: rand.Rand is not goroutine-safe and multiple sessions of
// one Remote may back off concurrently).
func (r *Remote) jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d
	}
	half := d / 2
	r.jmu.Lock()
	n := r.jrng.Int63n(int64(half) + 1)
	r.jmu.Unlock()
	return half + time.Duration(n)
}

// Remote is a network-backed engine.Engine: every session speaks the
// idebench wire protocol to a remote Server. OpenSession dials one
// WebSocket connection per session (the server's session-per-connection
// model), so driver.Replay replays workflows over the network exactly as
// it does in-process.
type Remote struct {
	opts  RemoteOptions
	name  string
	rows  int64
	seed  int64
	role  string
	stats FrameStats
	// wm tracks the highest watermark any session's ingest frame reported:
	// the remote engine's confirmed data version.
	wm atomic.Int64

	// jrng is this client's private backoff-jitter source (see newJitterRand).
	jmu  sync.Mutex
	jrng *rand.Rand

	// addrs is the dial rotation: the primary address first, then
	// RemoteOptions.Addrs, then any peers learned from hello frames; cur
	// indexes the address the next dial targets. Guarded separately from mu
	// because redial runs while sessions hold their own locks.
	amu   sync.Mutex
	addrs []string
	cur   int

	// hello is the connection NewRemote dialed for the hello exchange. It
	// carries no queries: Ingest and Err use it.
	hello *RemoteSession
}

// currentAddr returns the address the next dial attempt targets.
func (r *Remote) currentAddr() string {
	r.amu.Lock()
	defer r.amu.Unlock()
	return r.addrs[r.cur]
}

// advanceAddr rotates to the next address in the dial list.
func (r *Remote) advanceAddr() {
	r.amu.Lock()
	r.cur = (r.cur + 1) % len(r.addrs)
	r.amu.Unlock()
}

// addrCount returns the current dial-list length (it can grow as hello
// frames reveal peers).
func (r *Remote) addrCount() int {
	r.amu.Lock()
	defer r.amu.Unlock()
	return len(r.addrs)
}

// Addrs returns a copy of the current dial rotation, primary-first.
func (r *Remote) Addrs() []string {
	r.amu.Lock()
	defer r.amu.Unlock()
	return append([]string(nil), r.addrs...)
}

// mergePeers appends addresses from a hello Peers list that the rotation
// does not already contain. The server states every address its tier is
// reachable at, so a client that dialed only the primary learns where the
// warm standbys live before it needs them.
func (r *Remote) mergePeers(peers []string) {
	if len(peers) == 0 {
		return
	}
	r.amu.Lock()
	defer r.amu.Unlock()
	for _, p := range peers {
		if p == "" {
			continue
		}
		known := false
		for _, a := range r.addrs {
			if a == p {
				known = true
				break
			}
		}
		if !known {
			r.addrs = append(r.addrs, p)
		}
	}
}

// NewRemote connects to a Server at addr ("host:port") and performs the
// hello exchange on an initial connection, which stays open as the
// connection ingest travels on.
func NewRemote(addr string) (*Remote, error) {
	return NewRemoteWithOptions(addr, RemoteOptions{})
}

// NewRemoteWithOptions is NewRemote with explicit resilience options. addr
// is the preferred (first-dialed) address; opts.Addrs extends the rotation.
func NewRemoteWithOptions(addr string, opts RemoteOptions) (*Remote, error) {
	r := &Remote{opts: opts.withDefaults(), jrng: newJitterRand(), addrs: []string{addr}}
	r.mergePeers(opts.Addrs)
	sess, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.name = sess.engineName
	r.rows = sess.rows
	r.seed = sess.seed
	r.role = sess.role
	r.hello = sess
	r.wm.Store(sess.rows)
	return r, nil
}

// Role returns the serving-topology role the server stated in its hello
// frame ("" for a standalone server, "shard" or "coord" in a scatter-gather
// tier).
func (r *Remote) Role() string { return r.role }

// Name implements engine.Engine: the served engine's name, so records from
// a network replay group exactly like the in-process run they compare to.
func (r *Remote) Name() string { return r.name }

// Rows returns the fact-table size the server stated in its hello frame.
func (r *Remote) Rows() int64 { return r.rows }

// Seed returns the dataset seed the server stated in its hello frame
// (0 if the server did not state one).
func (r *Remote) Seed() int64 { return r.seed }

// Stats exposes the frame counters (shared across all sessions).
func (r *Remote) Stats() *FrameStats { return &r.stats }

// Prepare implements engine.Engine. The remote server prepared its engine
// at startup; instead of shipping data, the client checks that the local
// dataset (the ground-truth source) matches what the server stated in its
// hello frame — a row-count or seed mismatch would make every accuracy
// metric silently wrong.
func (r *Remote) Prepare(db *dataset.Database, opts engine.Options) error {
	if r.rows > 0 && db != nil && int64(db.Fact.NumRows()) != r.rows {
		return fmt.Errorf("server: remote engine is prepared for %d rows, local dataset has %d",
			r.rows, db.Fact.NumRows())
	}
	if r.seed != 0 && opts.Seed != 0 && opts.Seed != r.seed {
		return fmt.Errorf("server: remote engine is prepared with seed %d, local run uses seed %d",
			r.seed, opts.Seed)
	}
	return nil
}

// OpenSession implements engine.Engine by dialing a dedicated connection.
// Session interfaces cannot fail, so a dial error surfaces on the session's
// first StartQuery.
func (r *Remote) OpenSession() engine.Session {
	sess, err := r.dial()
	if err != nil {
		return &RemoteSession{dialErr: err}
	}
	return sess
}

// dialConn performs one connection attempt against the rotation's current
// address: handshake, hello exchange, version check. No retries — callers
// decide the retry policy. A successful hello merges the server's Peers
// into the dial rotation.
func (r *Remote) dialConn() (*WSConn, *ServerMsg, error) {
	ws, err := dialWS("ws://"+r.currentAddr()+"/ws", DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	op, data, err := ws.ReadMessage()
	if err != nil {
		ws.Close()
		return nil, nil, fmt.Errorf("server: reading hello: %w", err)
	}
	hello, err := decodeServerMsg(op, data)
	if err != nil {
		ws.Close()
		return nil, nil, err
	}
	if hello.Type != MsgHello {
		ws.Close()
		return nil, nil, fmt.Errorf("server: expected hello, got %q", hello.Type)
	}
	if hello.Version != ProtoVersion {
		ws.Close()
		return nil, nil, fmt.Errorf("server: protocol version %d, client speaks %d", hello.Version, ProtoVersion)
	}
	r.mergePeers(hello.Peers)
	return ws, hello, nil
}

// redial retries dialConn after a connection failure with exponential
// backoff + jitter, honoring any server Retry-After hint as the floor.
//
// With a multi-address rotation every failed attempt — retryable or
// terminal — advances to the next address before retrying: a kill -9'd
// primary refuses connections (retryable), a drained one closes with
// GoingAway (terminal), and either way the answer lives at a standby, not
// in hammering the same address. The attempt budget scales with the
// rotation length so each address gets its MaxRetries; a full lap of
// terminal failures — every address refused for a reason retrying cannot
// fix — gives up at once, preserving the single-address contract that a
// terminal error is returned without any retry.
func (r *Remote) redial(cause error) (*WSConn, *ServerMsg, error) {
	err := cause
	backoff := backoffBase
	if ra := retryAfterHint(err); ra > backoff {
		backoff = ra
	}
	terminalLap := 0
	for attempt := 0; attempt < r.opts.MaxRetries*r.addrCount(); attempt++ {
		n := r.addrCount()
		if !IsRetryable(err) {
			terminalLap++
			if terminalLap >= n {
				return nil, nil, err
			}
		} else {
			terminalLap = 0
		}
		if n > 1 {
			r.advanceAddr()
		}
		time.Sleep(r.jitter(backoff))
		var ws *WSConn
		var hello *ServerMsg
		ws, hello, err = r.dialConn()
		if err == nil {
			return ws, hello, nil
		}
		if ra := retryAfterHint(err); ra > backoff {
			backoff = ra
		}
		backoff *= 2
		if backoff > r.opts.BackoffMax {
			backoff = r.opts.BackoffMax
		}
	}
	return nil, nil, err
}

func (r *Remote) dial() (*RemoteSession, error) {
	ws, hello, err := r.dialConn()
	if err != nil && r.opts.Reconnect {
		ws, hello, err = r.redial(err)
	}
	if err != nil {
		return nil, err
	}
	s := &RemoteSession{
		ws:         ws,
		rem:        r,
		stats:      &r.stats,
		wm:         &r.wm,
		engineName: hello.Engine,
		rows:       hello.Rows,
		seed:       hello.Seed,
		role:       hello.Role,
		partials:   r.opts.Partials,
		handles:    make(map[int64]*remoteHandle),
		readDone:   make(chan struct{}),
	}
	r.stats.Sessions.Add(1)
	go s.readLoop()
	return s, nil
}

// Close closes the hello connection. Sessions from OpenSession are closed
// by their users (the driver defers sess.Close per user).
func (r *Remote) Close() { r.hello.Close() }

// Ingest ships one batch to the server over the hello connection. The call
// is asynchronous: the server's ingest broadcast (on every session)
// confirms application and advances Watermark. A server-side rejection of
// an earlier frame (engine without the append capability, draining,
// malformed batch) arrives as an error frame on the hello connection and
// fails the next Ingest call here, so a feeder cannot keep pumping batches
// into a void.
func (r *Remote) Ingest(b *ingest.Batch) error {
	if err := r.hello.Err(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	ws, err := r.hello.liveConn()
	if err != nil {
		return err
	}
	return ws.WriteBinary(b.AppendBinary(make([]byte, wsHeadroom)))
}

// Err surfaces the first connection- or server-reported error on the hello
// connection (ingest rejections land here: ingest frames carry no query
// id, so no handle observes them).
func (r *Remote) Err() error { return r.hello.Err() }

// ApplyBatch implements ingest.Sink, so a Remote slots into an
// ingest.Harness exactly like an in-process engine: the client-side harness
// owns the ground-truth lineage while the server's engine absorbs the same
// batches.
func (r *Remote) ApplyBatch(b *ingest.Batch, _ *dataset.Table) error { return r.Ingest(b) }

// Watermark returns the highest data version the server has confirmed via
// ingest broadcasts (the prepared row count before any ingestion).
func (r *Remote) Watermark() int64 { return r.wm.Load() }

// PingTimeout bounds one Ping health probe — short, because the health loop
// that calls it runs serially over every replica and a hung probe must not
// stall the whole pass.
const PingTimeout = 2 * time.Second

// Ping implements the coordinator's health-probe capability (shard.Pinger):
// one HTTP GET of the server's /healthz over a fresh connection, so it
// reflects current reachability rather than the state of a long-lived
// WebSocket that may have died silently.
func (r *Remote) Ping() error {
	c := &http.Client{Timeout: PingTimeout}
	resp, err := c.Get("http://" + r.currentAddr() + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz status %s", resp.Status)
	}
	return nil
}

var (
	_ engine.Engine = (*Remote)(nil)
	_ ingest.Sink   = (*Remote)(nil)
)

// RemoteSession is one WebSocket connection speaking the wire protocol —
// the client half of the server's session-per-connection model.
type RemoteSession struct {
	rem        *Remote // owning Remote (nil only in tests); reconnect policy
	stats      *FrameStats
	wm         *atomic.Int64 // shared watermark tracker (nil for bare sessions)
	engineName string
	rows       int64
	seed       int64
	role       string
	partials   bool // request raw partials on every query
	dialErr    error

	mu       sync.Mutex
	ws       *WSConn // current connection; swapped under mu on reconnect
	nextID   int64
	handles  map[int64]*remoteHandle
	err      error // first connection-level failure
	closed   bool
	deadline time.Duration // attached to query frames as DeadlineMS
	// reconnecting is true from the moment a connection loss is being
	// handled until the replacement connection is installed (or the session
	// fails/closes). While set, ws still points at the DEAD connection — and
	// a write to a socket that received the peer's FIN succeeds silently
	// into the kernel buffer, losing the frame without an error. Senders
	// must therefore wait the flag out (liveConn) instead of writing.
	reconnecting bool
	sendCond     *sync.Cond // lazily made; broadcast when senders may proceed

	readDone chan struct{}
}

// conn returns the session's current connection (reconnects swap it). Only
// the readLoop — the goroutine that performs reconnects — may use it to do
// I/O; frame writers go through liveConn.
func (s *RemoteSession) conn() *WSConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ws
}

// wakeSenders unblocks goroutines waiting in liveConn. Callers hold s.mu.
func (s *RemoteSession) wakeSenders() {
	if s.sendCond != nil {
		s.sendCond.Broadcast()
	}
}

// liveConn returns the connection an outgoing frame should be written to,
// waiting out an in-progress reconnect: between a connection loss and the
// swap-in of its replacement, ws points at a dead socket that can swallow a
// write without an error (the first write after the peer's FIN lands in the
// kernel buffer and vanishes with the RST). Returns the session error when
// the loss proved terminal, so a blocked sender fails loudly instead.
func (s *RemoteSession) liveConn() (*WSConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.reconnecting && !s.closed && s.err == nil {
		if s.sendCond == nil {
			s.sendCond = sync.NewCond(&s.mu)
		}
		s.sendCond.Wait()
	}
	if s.closed {
		return nil, ErrWSClosed
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.ws, nil
}

// RemoteAddr reports the TCP peer of the session's current connection, ""
// when the session never connected.
func (s *RemoteSession) RemoteAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ws == nil {
		return ""
	}
	return s.ws.conn.RemoteAddr().String()
}

// SetQueryDeadline attaches d as the deadline hint (ClientMsg.DeadlineMS)
// to every subsequent query on this session, arming the server's
// deadline-aware shedding for them. 0 (the default) sends no hint.
func (s *RemoteSession) SetQueryDeadline(d time.Duration) {
	s.mu.Lock()
	s.deadline = d
	s.mu.Unlock()
}

// readLoop dispatches server frames to their handles until the connection
// drops, then — if the loss is retryable and reconnection is enabled —
// re-establishes the connection and keeps going, otherwise fails every
// outstanding handle.
func (s *RemoteSession) readLoop() {
	defer close(s.readDone)
	for {
		op, data, err := s.conn().ReadMessage()
		if err != nil {
			if s.tryReconnect(err) {
				continue
			}
			s.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		// data lives in the connection's read buffer until the next read:
		// whatever outlives this iteration is copied or decoded out of it.
		if op == opBinary {
			f, err := parseSnapshot(data)
			if err != nil {
				s.fail(err)
				s.conn().Close()
				return
			}
			s.onSnapshot(f)
			continue
		}
		m, err := decodeServerMsg(op, data)
		if err != nil {
			s.fail(err)
			s.conn().Close()
			return
		}
		switch m.Type {
		case MsgError:
			s.stats.Errors.Add(1)
			s.mu.Lock()
			h := s.handles[m.ID]
			delete(s.handles, m.ID)
			if s.err == nil {
				if m.ID == 0 {
					// Not tied to a query handle (an ingest rejection).
					s.err = fmt.Errorf("server: %s", m.Error)
				} else {
					s.err = fmt.Errorf("server: query %d: %s", m.ID, m.Error)
				}
			}
			s.mu.Unlock()
			if h != nil {
				h.deliver(nil, true)
			}
		case MsgReject:
			// Admission control, not failure: the handle completes empty and
			// reports why; the session stays healthy for the next query.
			s.stats.Rejected.Add(1)
			s.mu.Lock()
			h := s.handles[m.ID]
			delete(s.handles, m.ID)
			s.mu.Unlock()
			if h != nil {
				h.reject(m.Error, time.Duration(m.RetryMS)*time.Millisecond)
			}
		case MsgIngest:
			s.stats.Ingest.Add(1)
			if s.wm != nil {
				casMax(s.wm, m.Watermark)
			}
		case MsgHello:
			// Duplicate hello: harmless.
		}
	}
}

// onSnapshot hands one snapshot frame to its query's handle.
func (s *RemoteSession) onSnapshot(f snapshotFrame) {
	if f.final {
		s.stats.Final.Add(1)
	} else {
		s.stats.Intermediate.Add(1)
	}
	s.mu.Lock()
	h := s.handles[f.id]
	if f.final {
		delete(s.handles, f.id)
	}
	s.mu.Unlock()
	if h == nil {
		return
	}
	if f.final && f.shed {
		h.markShed()
	}
	if f.partial != nil {
		h.setPartial(f.partial)
	}
	h.deliver(f.result, f.final)
}

// casMax raises w to v if v is higher (monotone max: broadcasts from
// different sessions may arrive out of order).
func casMax(w *atomic.Int64, v int64) {
	for {
		cur := w.Load()
		if v <= cur || w.CompareAndSwap(cur, v) {
			return
		}
	}
}

// tryReconnect handles a connection loss under the Reconnect policy: it
// completes in-flight handles (their server-side state died with the
// connection), redials with backoff + jitter, and swaps in the fresh
// connection. Returns false when reconnection is off, the loss is terminal
// (IsRetryable), the session was closed locally, or retries ran out — the
// caller then fails the session. The shared watermark survives the swap:
// queries on the new connection answer against at least the last version
// any session confirmed.
func (s *RemoteSession) tryReconnect(cause error) bool {
	if s.rem == nil || !s.rem.opts.Reconnect || !IsRetryable(cause) {
		return false
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	// Senders block from here until the replacement connection is in (or
	// fail clears the flag): queries started during the redial must go out
	// on the NEW connection, not silently into the dead one.
	s.reconnecting = true
	s.mu.Unlock()
	s.completeHandles()
	ws, hello, err := s.rem.redial(cause)
	if err != nil {
		// Leave reconnecting set: the caller fails the session next, which
		// clears it with err installed, so woken senders see the error and
		// never the dead connection.
		return false
	}
	s.mu.Lock()
	if s.closed {
		s.reconnecting = false
		s.wakeSenders()
		s.mu.Unlock()
		ws.Close()
		return false
	}
	s.ws = ws
	s.reconnecting = false
	s.wakeSenders()
	s.mu.Unlock()
	if s.wm != nil {
		casMax(s.wm, hello.Rows)
	}
	s.rem.stats.Reconnects.Add(1)
	return true
}

// completeHandles closes every outstanding handle with whatever snapshot it
// had, without poisoning the session.
func (s *RemoteSession) completeHandles() {
	s.mu.Lock()
	handles := s.handles
	s.handles = make(map[int64]*remoteHandle)
	s.mu.Unlock()
	for _, h := range handles {
		h.deliver(nil, true)
	}
}

// fail marks the session broken and completes all outstanding handles so no
// driver goroutine blocks on a dead connection.
func (s *RemoteSession) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.reconnecting = false
	s.wakeSenders()
	s.mu.Unlock()
	s.completeHandles()
}

// Err returns the first connection-level or per-query error the session
// observed. A per-query error frame completes its own handle with no
// result AND poisons the session: subsequent StartQuery calls return the
// stored error, so a replay fails loudly at the next interaction instead
// of silently recording garbage metrics against a broken setup (benchmark
// queries are machine-generated; an engine-side rejection means the run
// configuration is wrong, not that one query was unlucky).
func (s *RemoteSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// send marshals and writes one client message on the live connection,
// waiting out a reconnect in progress.
func (s *RemoteSession) send(m *ClientMsg) error {
	data, err := encodeMsg(m)
	if err != nil {
		return err
	}
	ws, err := s.liveConn()
	if err != nil {
		return err
	}
	return ws.WriteMessage(data)
}

// StartQuery implements engine.Session. It is asynchronous like its
// in-process counterpart: the message goes out, the handle fills in as
// snapshot frames arrive. Queries are validated locally first so malformed
// queries fail fast without a round trip.
func (s *RemoteSession) StartQuery(q *query.Query) (engine.Handle, error) {
	if s.dialErr != nil {
		return nil, s.dialErr
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrWSClosed
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	id := s.nextID
	deadlineMS := int64(s.deadline / time.Millisecond)
	h := &remoteHandle{sess: s, id: id, done: make(chan struct{})}
	s.handles[id] = h
	s.mu.Unlock()

	if err := s.send(&ClientMsg{Type: MsgQuery, ID: id, Query: q, DeadlineMS: deadlineMS, Partials: s.partials}); err != nil {
		s.mu.Lock()
		delete(s.handles, id)
		s.mu.Unlock()
		return nil, err
	}
	return h, nil
}

// LinkVizs implements engine.Session (fire-and-forget, like the in-process
// call which has no error return).
func (s *RemoteSession) LinkVizs(from, to string) {
	if s.dialErr == nil {
		s.send(&ClientMsg{Type: MsgLink, From: from, To: to})
	}
}

// DeleteViz implements engine.Session.
func (s *RemoteSession) DeleteViz(name string) {
	if s.dialErr == nil {
		s.send(&ClientMsg{Type: MsgDeleteViz, Name: name})
	}
}

// WorkflowStart implements engine.Session.
func (s *RemoteSession) WorkflowStart() {
	if s.dialErr == nil {
		s.send(&ClientMsg{Type: MsgWorkflowStart})
	}
}

// WorkflowEnd implements engine.Session.
func (s *RemoteSession) WorkflowEnd() {
	if s.dialErr == nil {
		s.send(&ClientMsg{Type: MsgWorkflowEnd})
	}
}

// Close implements engine.Session: it closes the connection, which makes
// the server cancel in-flight queries and release the session's resources.
func (s *RemoteSession) Close() {
	if s.dialErr != nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ws := s.ws
	s.wakeSenders()
	s.mu.Unlock()
	ws.Close()
	<-s.readDone
}

var _ engine.Session = (*RemoteSession)(nil)

// remoteHandle is the client-side engine.Handle of one in-flight query:
// Snapshot returns the freshest streamed result, Done closes on the final
// frame, Cancel asks the server to stop (the final frame still closes Done).
//
// The handle keeps the freshest result as the frame delivered it — its binary
// form, checked on arrival — and decodes it when Snapshot is called: a
// driver looks at a query once or twice (at the time requirement, at the
// final) however many intermediates streamed past, and a caller that holds
// finished handles holds a frame's bytes each, not a decoded bin table.
type remoteHandle struct {
	sess *RemoteSession
	id   int64

	mu        sync.RWMutex
	res       []byte // binary form of the freshest result; nil before the first
	partial   *engine.Partial
	rejected  bool
	rejReason string
	rejRetry  time.Duration
	shed      bool
	done      chan struct{}
	once      sync.Once
}

// deliver installs a streamed result, copying its checked binary form out of
// the connection's read buffer (into the previous frame's space when it
// fits). Final frames may carry nil (a query cancelled before any rows, or a
// server-side error); the last good intermediate then remains the fetchable
// result.
func (h *remoteHandle) deliver(res []byte, final bool) {
	h.mu.Lock()
	if res != nil {
		h.res = append(h.res[:0], res...)
	}
	h.mu.Unlock()
	if final {
		h.once.Do(func() { close(h.done) })
	}
}

// reject completes the handle as refused at admission.
func (h *remoteHandle) reject(reason string, retry time.Duration) {
	h.mu.Lock()
	h.rejected = true
	h.rejReason = reason
	h.rejRetry = retry
	h.mu.Unlock()
	h.once.Do(func() { close(h.done) })
}

// markShed records that the final snapshot came from deadline-aware
// shedding (the server cancelled the late query; the result is the partial
// estimate at the cancel).
func (h *remoteHandle) markShed() {
	h.mu.Lock()
	h.shed = true
	h.mu.Unlock()
}

// Rejected reports whether the server refused this query at admission
// control, and the backoff it suggested (0 = terminal rejection). Load
// generators use it to tell explicit rejections from failures.
func (h *remoteHandle) Rejected() (bool, time.Duration) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rejected, h.rejRetry
}

// RejectReason returns the server's stated rejection reason ("" when the
// query was admitted).
func (h *remoteHandle) RejectReason() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rejReason
}

// Shed reports whether the final result was cut short by deadline-aware
// shedding rather than run to completion.
func (h *remoteHandle) Shed() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.shed
}

// setPartial installs the freshest streamed raw accumulator state.
func (h *remoteHandle) setPartial(p *engine.Partial) {
	h.mu.Lock()
	h.partial = p
	h.mu.Unlock()
}

// PartialSnapshot implements engine.PartialSnapshotter: the latest raw
// partial the server streamed, nil until the first frame carrying one (or
// forever, when the session did not request partials).
func (h *remoteHandle) PartialSnapshot() *engine.Partial {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.partial
}

// Snapshot implements engine.Handle: the freshest streamed result, decoded
// for this caller, or nil before the first.
func (h *remoteHandle) Snapshot() *query.Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.res == nil {
		return nil
	}
	res := new(query.Result)
	if err := res.UnmarshalBinary(h.res); err != nil {
		return nil // unreachable: the frame was checked when it arrived
	}
	return res
}

// Done implements engine.Handle.
func (h *remoteHandle) Done() <-chan struct{} { return h.done }

// Cancel implements engine.Handle: best-effort, idempotent on the server.
func (h *remoteHandle) Cancel() {
	h.sess.mu.Lock()
	closed := h.sess.closed
	h.sess.mu.Unlock()
	select {
	case <-h.done:
		return // already final; nothing to cancel
	default:
	}
	if !closed {
		h.sess.send(&ClientMsg{Type: MsgCancel, ID: h.id})
	}
}

var _ engine.Handle = (*remoteHandle)(nil)
