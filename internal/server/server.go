// Package server exposes a prepared engine.Engine over the network: an HTTP
// endpoint that upgrades to WebSocket, binds one engine.Session per
// connection, and streams progressive result snapshots as they land.
//
// # Session-per-connection
//
// Each WebSocket connection is one simulated analyst: the handler opens an
// engine session on accept and closes it on disconnect, so the server-side
// resource lifetime is exactly the connection lifetime — a vanished client
// releases its shared-scan consumers without any reaper.
//
// # Streaming with backpressure
//
// A per-query watcher polls the engine handle and enqueues snapshot frames
// into a per-connection outbox with drop-intermediate, always-deliver-final
// semantics: an unsent intermediate snapshot is overwritten by the next one
// (the newer snapshot strictly supersedes it — progressive results are
// monotone in rows seen), while final frames queue FIFO and are never
// dropped. A slow client therefore sees fewer, fresher intermediates and
// every final, and never stalls the engine's shared scan: watchers swap a
// pointer under a mutex instead of blocking on the socket. A client that
// stops reading entirely is bounded the other way — each frame write
// carries a deadline (writeTimeout) and the final backlog is capped, so a
// dead peer is disconnected and its session released instead of
// accumulating results indefinitely.
//
// # Lifecycle
//
// Drain (SIGTERM) stops accepting connections and queries, lets in-flight
// queries publish their final frames, flushes outboxes, then closes. The
// connection count is capped by Options.MaxConns; excess upgrades are
// rejected with 503 before any session is opened.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
)

// Options tunes the serving layer.
type Options struct {
	// MaxConns caps concurrent WebSocket connections (= engine sessions);
	// 0 means DefaultMaxConns.
	MaxConns int
	// PollInterval is the watcher's snapshot poll period — the granularity
	// of intermediate frames. 0 means DefaultPollInterval.
	PollInterval time.Duration
	// Rows is the prepared fact-table size, stated in the hello frame so
	// clients can sanity-check they built the matching ground truth.
	Rows int64
	// Seed is the dataset seed, stated in the hello frame for the same
	// ground-truth check (0 = unknown, clients skip the check).
	Seed int64
	// Apply handles client ingest frames: it applies the batch to the
	// served engine and returns the post-apply watermark, which the server
	// then broadcasts to every live session. nil (an engine without the
	// append capability) rejects ingest frames with an error frame.
	Apply func(b *ingest.Batch) (int64, error)
	// MaxInflight caps concurrently executing queries across every
	// connection. Arrivals beyond it are refused with an explicit "reject"
	// frame carrying a retry hint — admission control, so the queries the
	// server does run keep their latency under overload instead of all of
	// them missing their deadlines together. 0 means DefaultMaxInflight.
	MaxInflight int
	// MaxInflightPerConn caps one connection's concurrent queries — fairness
	// on the shared scan: a single session blasting queries is rejected at
	// this bound while everyone else still fits under MaxInflight. 0 means
	// DefaultMaxInflightPerConn.
	MaxInflightPerConn int
	// Role names this server's position in the serving topology, stated in
	// hello frames and on /healthz: "" (standalone), "shard" (one partition
	// behind a scatter-gather coordinator) or "coord" (the coordinator).
	Role string
	// Peers lists every address this serving tier is reachable at (this
	// server plus its warm standbys), stated in hello frames so clients
	// can extend their redial address list with addresses they never
	// dialed. Order is the suggested dial preference.
	Peers []string
	// Rebalance, when set, handles topology-change requests arriving on the
	// POST /rebalance admin endpoint (coordinators wire it to the shard
	// tier's AddReplicaAddr/RemoveReplica/Rebalance). nil — the common case for
	// standalone servers and shards — leaves the endpoint answering 404.
	Rebalance func(req RebalanceRequest) error
	// Durable, when set, is the durability subsystem backing this server.
	// The serving layer itself does not log batches — the Apply function is
	// expected to enforce WAL-before-apply ordering internally (validate the
	// batch, append it to the write-ahead log with an fsync, then apply to
	// the engine; ingest.Applier.SetLog wires exactly that), so an ingest
	// frame is never acked or broadcast unless the batch is already durable.
	// The server uses this handle to surface recovery state on /healthz and
	// to flush the log as the final step of a drain.
	Durable Durability
}

// Durability is the serving layer's view of the durable-state subsystem;
// *durable.Store implements it.
type Durability interface {
	// Status reports recovery and log state: the /healthz "durable" block.
	Status() durable.Status
	// Flush forces the write-ahead log to stable storage; the drain path
	// calls it last, so a clean shutdown never leaves an unflushed tail.
	Flush() error
}

// DefaultMaxConns bounds concurrent sessions when Options.MaxConns is 0.
const DefaultMaxConns = 256

// DefaultPollInterval is the default snapshot streaming granularity. The
// benchmark's scaled time requirements run 2–40ms, so 1ms gives several
// intermediates inside even the tightest TR.
const DefaultPollInterval = time.Millisecond

// writeTimeout bounds each frame write: orders of magnitude above any
// honest client's drain latency, small enough that a client that stops
// reading is disconnected (session released) instead of parking the writer
// goroutine while the finals accumulating for it grow.
const writeTimeout = 30 * time.Second

// maxQueuedFinals caps the per-connection final-frame backlog. Finals are
// never dropped for a live client, so the only way past this bound is a
// client issuing queries faster than it reads results for longer than the
// write timeout — abuse, answered by disconnect.
const maxQueuedFinals = 4096

// DefaultMaxInflight bounds concurrent queries server-wide. High enough
// that closed-loop replays (a few queries per analyst) never see it; the
// open-loop overload experiments tune it down to move the knee.
const DefaultMaxInflight = 1024

// DefaultMaxInflightPerConn bounds one connection's concurrent queries.
const DefaultMaxInflightPerConn = 256

// retryHint is the backoff the server suggests on retryable rejections: a
// few query lifetimes at the benchmark's interactivity deadlines.
const retryHint = 50 * time.Millisecond

// lateFactor drives deadline-aware shedding: a query whose client stated a
// deadline (ClientMsg.DeadlineMS) and that is still running at twice it is
// cancelled, its partial final marked Shed. The client already took its
// deadline snapshot at 1×, so 2× keeps a grace window for almost-done
// queries while bounding how long a hopeless one steals scan capacity from
// queries that can still make theirs.
const lateFactor = 2

// pingInterval is how often the server pings each connection to elicit
// liveness traffic; idleTimeout is the read-side liveness deadline: a
// connection that produces no inbound frame (data, ping or pong — clients
// answer pings transparently) for that long is torn down and its engine
// session released, so a client that vanishes without a TCP reset cannot
// hold its shared-scan consumers. Three missed pings is far above any
// honest client's pause, small enough that a vanished client's session is
// reclaimed promptly.
const (
	pingInterval = 10 * time.Second
	idleTimeout  = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = DefaultMaxConns
	}
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultPollInterval
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.MaxInflightPerConn <= 0 {
		o.MaxInflightPerConn = DefaultMaxInflightPerConn
	}
	return o
}

// Counters are the server's cumulative overload and liveness counters,
// exposed as the /healthz "admission" block. All fields are monotone; read
// them with Load.
type Counters struct {
	// Admitted counts queries accepted past admission control.
	Admitted atomic.Int64
	// RejectedOverload counts queries refused at the global MaxInflight cap.
	RejectedOverload atomic.Int64
	// RejectedPerConn counts queries refused at the per-connection fairness
	// cap while the server as a whole had room.
	RejectedPerConn atomic.Int64
	// RejectedDraining counts queries refused because the server was
	// draining (terminal rejections).
	RejectedDraining atomic.Int64
	// ConnsRejected counts upgrade attempts refused pre-session (connection
	// cap or drain).
	ConnsRejected atomic.Int64
	// ShedLate counts queries cancelled by deadline-aware shedding.
	ShedLate atomic.Int64
	// DroppedIntermediates counts unsent intermediate snapshots superseded
	// by fresher ones in the outbox (backpressure coalescing).
	DroppedIntermediates atomic.Int64
	// IdleDisconnects counts connections torn down by the read-side
	// liveness deadline.
	IdleDisconnects atomic.Int64
}

// Server serves one prepared engine. It is an http.Handler: "/ws" upgrades
// to the WebSocket protocol, "/healthz" reports JSON health, and — when
// Options.Rebalance is wired — "/rebalance" accepts topology changes.
type Server struct {
	eng  engine.Engine
	opts Options
	mux  *http.ServeMux
	// pingInterval and idleTimeout start as the package constants;
	// in-package tests shorten them before serving.
	pingInterval time.Duration
	idleTimeout  time.Duration

	ctr      Counters
	inflight atomic.Int64 // queries executing across all connections

	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	draining bool

	hs *http.Server
}

// New builds a server over an already-prepared engine.
func New(eng engine.Engine, opts Options) *Server {
	s := &Server{
		eng:          eng,
		opts:         opts.withDefaults(),
		mux:          http.NewServeMux(),
		pingInterval: pingInterval,
		idleTimeout:  idleTimeout,
		conns:        make(map[*serverConn]struct{}),
	}
	s.mux.HandleFunc("/ws", s.handleWS)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	if s.opts.Rebalance != nil {
		s.mux.HandleFunc("/rebalance", s.handleRebalance)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve accepts connections on l until Shutdown or a listener error.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s}
	s.mu.Lock()
	s.hs = hs
	s.mu.Unlock()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains every connection (in-flight queries deliver their final
// snapshots, outboxes flush), stops the listener, waits for every drained
// connection's reader to exit and flushes the durable log. Connections
// still draining when ctx expires are closed hard; a reader still running
// then makes Shutdown return ctx's error without the flush.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	hs := s.hs
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *serverConn) {
			defer wg.Done()
			c.drain(ctx)
		}(c)
	}
	wg.Wait()
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	// A drained connection's reader may still be inside an ingest apply.
	for _, c := range conns {
		select {
		case <-c.gone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Flush the durable log last: every reader has exited, so the log is
	// quiescent and a clean shutdown leaves no unflushed tail behind.
	if s.opts.Durable != nil {
		return s.opts.Durable.Flush()
	}
	return nil
}

// liveWatermark is the single source of truth for the data version the
// server is at: the engine's absorbed row count when it has the watermark
// capability, never below the prepared row count. The hello frame, the
// /healthz document and the recovery banner all report this one value — it
// is what a reconnecting client resumes at after a crash recovery.
func (s *Server) liveWatermark() int64 {
	rows := s.opts.Rows
	if wmk, ok := s.eng.(engine.Watermarker); ok {
		if wm := wmk.Watermark(); wm > rows {
			rows = wm
		}
	}
	return rows
}

// ConnCount returns the number of live connections (= open sessions).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Counters exposes the server's overload/liveness counters for tests and
// embedding callers; /healthz reports the same numbers over HTTP.
func (s *Server) Counters() *Counters { return &s.ctr }

// HealthSchemaVersion identifies the /healthz document layout. Monitoring
// that scrapes the endpoint keys off this field instead of sniffing for
// marker fields. Version 1 is the pre-elasticity document (implicit — it
// carried no schema_version field); version 2 added schema_version itself
// plus the replica-set topology block; version 3 nests the cumulative
// counters under "admission" and the durable store's status under
// "durable", and drops the shard fields that restated the topology block;
// version 4 drops the admission block's speculation-shed counter (the server
// no longer sheds speculation: the shared scan already suspends it while
// foreground work runs); version 5 adds the "derived" block, the size of
// what the engine derived from its table alone (its block-table ledger).
const HealthSchemaVersion = 5

// Health is the /healthz document — THE wire schema for server health, one
// struct instead of ad-hoc map building, versioned by SchemaVersion. Live
// state is top-level; each subsystem's state is one nested block.
type Health struct {
	// SchemaVersion is HealthSchemaVersion.
	SchemaVersion int    `json:"schema_version"`
	Engine        string `json:"engine"`
	Rows          int64  `json:"rows"`
	// Version is the wire ProtoVersion the server speaks on /ws.
	Version  int  `json:"version"`
	Conns    int  `json:"conns"`
	MaxConns int  `json:"max_conns"`
	Draining bool `json:"draining"`
	// Inflight is the number of queries currently executing.
	Inflight int64 `json:"inflight"`
	// Watermark is the engine's absorbed row count (engines with the append
	// capability; otherwise the prepared row count).
	Watermark int64 `json:"watermark"`
	// ScanConsumers is the engine's attached shared-scan consumer count
	// (engines with the observer capability; otherwise 0). After a full
	// drain this must read 0 — anything else is a leak.
	ScanConsumers int `json:"scan_consumers"`
	// Role mirrors Options.Role.
	Role string `json:"role,omitempty"`
	// Topology is the replica-set topology of a coordinator (engines with
	// the topology-observer capability): which replicas serve each
	// partition, their health/sync state and confirmed watermarks — the min
	// over partitions bounds every merged snapshot's Watermark — and the
	// anti-entropy alarm counters. Absent on standalone servers and shards.
	Topology *engine.Topology `json:"topology,omitempty"`
	// Admission is the cumulative overload/liveness counters.
	Admission Admission `json:"admission"`
	// Durable is the durable store's recovery and log state; absent on
	// servers running without a data directory.
	Durable *durable.Status `json:"durable,omitempty"`
	// Derived is the size of the state the engine derived from its table
	// alone (engines with the derived-observer capability): its shared
	// scanner's block-table ledger. Absent on other engines.
	Derived *engine.Derived `json:"derived,omitempty"`
}

// Admission is a point-in-time copy of Counters: the /healthz "admission"
// block, one field per counter.
type Admission struct {
	Admitted             int64 `json:"admitted"`
	RejectedOverload     int64 `json:"rejected_overload"`
	RejectedPerConn      int64 `json:"rejected_per_conn"`
	RejectedDraining     int64 `json:"rejected_draining"`
	ConnsRejected        int64 `json:"conns_rejected"`
	ShedLate             int64 `json:"shed_late"`
	DroppedIntermediates int64 `json:"dropped_intermediates"`
	IdleDisconnects      int64 `json:"idle_disconnects"`
}

func (c *Counters) admission() Admission {
	return Admission{
		Admitted:             c.Admitted.Load(),
		RejectedOverload:     c.RejectedOverload.Load(),
		RejectedPerConn:      c.RejectedPerConn.Load(),
		RejectedDraining:     c.RejectedDraining.Load(),
		ConnsRejected:        c.ConnsRejected.Load(),
		ShedLate:             c.ShedLate.Load(),
		DroppedIntermediates: c.DroppedIntermediates.Load(),
		IdleDisconnects:      c.IdleDisconnects.Load(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{
		SchemaVersion: HealthSchemaVersion,
		Engine:        s.eng.Name(),
		Rows:          s.opts.Rows,
		Version:       ProtoVersion,
		Conns:         len(s.conns),
		MaxConns:      s.opts.MaxConns,
		Draining:      s.draining,
	}
	s.mu.Unlock()
	h.Inflight = s.inflight.Load()
	h.Watermark = s.liveWatermark()
	if obs, ok := s.eng.(engine.ScanObserver); ok {
		h.ScanConsumers = obs.ActiveScanConsumers()
	}
	h.Role = s.opts.Role
	if to, ok := s.eng.(engine.TopologyObserver); ok {
		topo := to.Topology()
		h.Topology = &topo
	}
	h.Admission = s.ctr.admission()
	if d := s.opts.Durable; d != nil {
		st := d.Status()
		h.Durable = &st
	}
	if do, ok := s.eng.(engine.DerivedObserver); ok {
		d := do.Derived()
		h.Derived = &d
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// RebalanceRequest is the POST /rebalance admin payload: one topology
// change. Op selects the operation — "add" attaches Addr as a cold replica
// of Partition (it joins unsynced and is promoted once its watermark proves
// it caught up), "remove" detaches the replica named Name. The
// checkpoint-streaming hash-range handoff (shard.Coordinator.Rebalance) needs
// an in-process target engine, so it has no op here.
type RebalanceRequest struct {
	Op        string `json:"op"`
	Partition int    `json:"partition"`
	// Addr is the replica backend address ("host:port") for add.
	Addr string `json:"addr,omitempty"`
	// Name is the replica name to detach for remove (as reported on the
	// /healthz topology block).
	Name string `json:"name,omitempty"`
}

// handleRebalance decodes one admin topology change and hands it to the
// Options.Rebalance hook. 200 with a JSON {"ok":true} on success; failures
// are 4xx/5xx with the error in the body so `idebench rebalance` can print
// it verbatim.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "rebalance wants POST", http.StatusMethodNotAllowed)
		return
	}
	var req RebalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad rebalance request: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch req.Op {
	case "add", "remove":
	default:
		http.Error(w, fmt.Sprintf("unknown rebalance op %q", req.Op), http.StatusBadRequest)
		return
	}
	if err := s.opts.Rebalance(req); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// rejectUpgrade writes a pre-upgrade 503 with a machine-readable reason so
// clients can classify it: "overloaded" carries a Retry-After hint (the
// house is full, come back), "draining" does not (the server is leaving).
func (s *Server) rejectUpgrade(w http.ResponseWriter, reason string) {
	s.ctr.ConnsRejected.Add(1)
	w.Header().Set(rejectReasonHeader, reason)
	if reason == ReasonOverloaded {
		secs := int((retryHint + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	http.Error(w, "server "+reason, http.StatusServiceUnavailable)
}

func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectUpgrade(w, ReasonDraining)
		return
	}
	if len(s.conns) >= s.opts.MaxConns {
		s.mu.Unlock()
		s.rejectUpgrade(w, ReasonOverloaded)
		return
	}
	s.mu.Unlock()

	ws, err := upgradeWS(w, r)
	if err != nil {
		return // upgradeWS already wrote the HTTP error
	}
	c := &serverConn{
		srv:      s,
		ws:       ws,
		sess:     s.eng.OpenSession(),
		poll:     s.opts.PollInterval,
		inflight: make(map[int64]engine.Handle),
		pending:  make(map[int64]*ServerMsg),
		wake:     make(chan struct{}, 1),
		closed:   make(chan struct{}),
		gone:     make(chan struct{}),
	}

	s.mu.Lock()
	// Re-check under the lock: Shutdown may have raced the upgrade. Past the
	// 101 the rejection must travel as a close frame; the code tells the
	// client whether reconnecting can help.
	if s.draining || len(s.conns) >= s.opts.MaxConns {
		draining := s.draining
		s.mu.Unlock()
		s.ctr.ConnsRejected.Add(1)
		c.sess.Close()
		if draining {
			ws.CloseWith(CloseGoingAway, "server draining")
		} else {
			ws.CloseWith(CloseTryLater, "connection limit reached")
		}
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	// The connection stays counted until its reader has returned: a
	// teardown from the write side can run while the reader is still
	// applying an ingest batch.
	defer s.removeConn(c)

	// Hello reports the live watermark when the engine grows under ingestion,
	// so a reconnecting client resumes at the server's current version rather
	// than the prepare-time row count.
	hello := &ServerMsg{Type: MsgHello, Version: ProtoVersion, Engine: s.eng.Name(), Rows: s.liveWatermark(), Seed: s.opts.Seed, Role: s.opts.Role, Peers: s.opts.Peers}
	if data, err := encodeMsg(hello); err != nil || ws.WriteMessage(data) != nil {
		c.teardown()
		return
	}
	ws.SetIdleTimeout(s.idleTimeout)
	go c.pingLoop(s.pingInterval)
	go c.writeLoop()
	c.readLoop()
}

func (s *Server) removeConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	close(c.gone)
}

// handleIngest applies one client ingest frame and broadcasts the new
// watermark to every live session (the feeder included — its confirmation
// is the same frame everyone else gets). Ingestion during drain is
// rejected: the drain contract is "finish what is in flight", not "accept
// new writes".
func (s *Server) handleIngest(from *serverConn, m *ClientMsg) {
	s.mu.Lock()
	apply := s.opts.Apply
	draining := s.draining
	s.mu.Unlock()
	if draining {
		from.push(&ServerMsg{Type: MsgError, ID: m.ID, Error: "server draining"})
		return
	}
	if apply == nil {
		from.push(&ServerMsg{Type: MsgError, ID: m.ID,
			Error: fmt.Sprintf("engine %s does not accept ingestion", s.eng.Name())})
		return
	}
	w, err := apply(m.Batch)
	if err != nil {
		from.push(&ServerMsg{Type: MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	frame := &ServerMsg{Type: MsgIngest, Watermark: w}
	for _, c := range conns {
		c.push(frame)
	}
}

// serverConn is one WebSocket connection bound to one engine session.
type serverConn struct {
	srv  *Server
	ws   *WSConn
	sess engine.Session
	poll time.Duration

	mu       sync.Mutex
	inflight map[int64]engine.Handle
	pending  map[int64]*ServerMsg // unsent intermediates, coalesced per query
	finals   []*ServerMsg         // finals + errors, FIFO, never dropped
	// pendingIngest coalesces watermark broadcasts: watermarks are monotone
	// and the client keeps only the max, so an unsent frame is strictly
	// superseded by the next. Without coalescing, sustained ingestion would
	// grow a slow bystander's never-dropped finals backlog with redundant
	// frames until the overflow guard killed its session.
	pendingIngest *ServerMsg
	draining      bool
	closing       bool // teardown begun: no new watchers may be added
	inWrite       bool // writer holds a dequeued frame it hasn't written yet
	// closeCode/closeReason, when set before teardown, are sent in the close
	// frame so the client can classify the disconnect (retryable/terminal).
	closeCode   uint16
	closeReason string

	wake   chan struct{}
	closed chan struct{}
	// gone closes once the reader has exited and the server has forgotten
	// the connection.
	gone      chan struct{}
	closeOnce sync.Once
	watchers  sync.WaitGroup
}

// setCloseReason records the close code the eventual teardown should send.
// First caller wins: the first reason is the root cause.
func (c *serverConn) setCloseReason(code uint16, reason string) {
	c.mu.Lock()
	if c.closeCode == 0 {
		c.closeCode = code
		c.closeReason = reason
	}
	c.mu.Unlock()
}

// pingLoop elicits liveness traffic: any live peer's ReadMessage answers
// pings with pongs, which re-arm the server's idle read deadline. A write
// failure means the connection is gone; teardown releases the session.
func (c *serverConn) pingLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.ws.SetWriteDeadline(time.Now().Add(writeTimeout))
			if c.ws.WritePing() != nil {
				c.teardown()
				return
			}
		}
	}
}

// readLoop decodes client frames until the connection drops, then tears the
// session down. It is the connection's owning goroutine.
func (c *serverConn) readLoop() {
	defer c.teardown()
	for {
		op, data, err := c.ws.ReadMessage()
		if err != nil {
			// A read deadline here is the idle-liveness timeout tripping: the
			// peer sent nothing (not even pongs) for idleTimeout — it is gone
			// without having said so. Tell it why, should it still be
			// half-listening, and release its session.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.srv.ctr.IdleDisconnects.Add(1)
				c.setCloseReason(CloseIdleTimeout, "idle deadline exceeded")
			}
			return
		}
		m, err := decodeClientMsg(op, data)
		if err != nil {
			// Malformed frames are protocol violations: report and hang up.
			// The diagnostic is written synchronously — pushing it through
			// the outbox would race the teardown this return triggers.
			if frame, eerr := encodeMsg(&ServerMsg{Type: MsgError, Error: err.Error()}); eerr == nil {
				c.ws.WriteMessage(frame)
			}
			return
		}
		switch m.Type {
		case MsgQuery:
			c.startQuery(m)
		case MsgCancel:
			c.mu.Lock()
			h := c.inflight[m.ID]
			c.mu.Unlock()
			if h != nil {
				h.Cancel()
			}
		case MsgIngest:
			c.srv.handleIngest(c, m)
		case MsgLink:
			c.sess.LinkVizs(m.From, m.To)
		case MsgDeleteViz:
			c.sess.DeleteViz(m.Name)
		case MsgWorkflowStart:
			c.sess.WorkflowStart()
		case MsgWorkflowEnd:
			c.sess.WorkflowEnd()
		}
	}
}

func (c *serverConn) startQuery(m *ClientMsg) {
	srv := c.srv
	c.mu.Lock()
	if c.draining || c.closing {
		c.mu.Unlock()
		// Terminal rejection (RetryMS 0): this connection accepts no further
		// queries. Explicit, and unlike an error frame it does not poison
		// the client session — in-flight queries still deliver their finals.
		srv.ctr.RejectedDraining.Add(1)
		c.push(&ServerMsg{Type: MsgReject, ID: m.ID, Error: "server draining"})
		return
	}
	if _, dup := c.inflight[m.ID]; dup {
		c.mu.Unlock()
		c.push(&ServerMsg{Type: MsgError, ID: m.ID, Error: fmt.Sprintf("duplicate query id %d", m.ID)})
		return
	}
	perConn := len(c.inflight)
	c.mu.Unlock()

	// Admission control: per-connection fairness before the global cap, so
	// one firehose session cannot crowd everyone else out. Speculative scan
	// work needs no valve here: the shared scan never dispatches it while a
	// foreground query is attached.
	retryMS := int64(retryHint / time.Millisecond)
	if perConn >= srv.opts.MaxInflightPerConn {
		srv.ctr.RejectedPerConn.Add(1)
		c.push(&ServerMsg{Type: MsgReject, ID: m.ID, Error: "session query limit reached", RetryMS: retryMS})
		return
	}
	if srv.inflight.Load() >= int64(srv.opts.MaxInflight) {
		srv.ctr.RejectedOverload.Add(1)
		c.push(&ServerMsg{Type: MsgReject, ID: m.ID, Error: "server query limit reached", RetryMS: retryMS})
		return
	}

	h, err := c.sess.StartQuery(m.Query)
	if err != nil {
		c.push(&ServerMsg{Type: MsgError, ID: m.ID, Error: err.Error()})
		return
	}
	c.mu.Lock()
	if c.closing {
		// Teardown raced the start: the watcher WaitGroup is (or is about to
		// be) waited on, so cancel directly instead of spawning.
		c.mu.Unlock()
		h.Cancel()
		return
	}
	c.inflight[m.ID] = h
	c.watchers.Add(1)
	srv.inflight.Add(1)
	srv.ctr.Admitted.Add(1)
	c.mu.Unlock()
	var lateBudget time.Duration
	if m.DeadlineMS > 0 {
		lateBudget = lateFactor * time.Duration(m.DeadlineMS) * time.Millisecond
	}
	go c.watch(m.ID, h, lateBudget, m.Partials)
}

// watch streams one query's snapshots: intermediates at the poll interval
// while the result advances, then the final at completion. On connection
// close it cancels the handle so the engine frees the query promptly. A
// positive lateBudget arms deadline-aware shedding: a query still running
// that long after admission is cancelled (its partial final marked Shed) —
// the client took its deadline snapshot long ago, so every further chunk
// this query folds is capacity stolen from queries that can still make
// their deadlines.
func (c *serverConn) watch(id int64, h engine.Handle, lateBudget time.Duration, partials bool) {
	defer c.srv.inflight.Add(-1)
	defer c.watchers.Done()
	// A client that asked for partials gets the raw accumulator state alone
	// on every snapshot frame — nothing on such a connection reads a rendered
	// result. A handle without the capability, or with no fragment to give,
	// answers with the rendered result and the coordinator reports the
	// missing partials itself.
	var ps engine.PartialSnapshotter
	if partials {
		ps, _ = h.(engine.PartialSnapshotter)
	}
	// fill loads the query's current state into m and returns the rows it
	// reflects, -1 when there is no state yet.
	fill := func(m *ServerMsg) int64 {
		if ps != nil {
			if m.Partial = ps.PartialSnapshot(); m.Partial != nil {
				return m.Partial.RowsSeen
			}
		}
		if m.Result = h.Snapshot(); m.Result != nil {
			return m.Result.RowsSeen
		}
		return -1
	}
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	var seq int64
	lastRows := int64(-1)
	start := time.Now()
	shed := false
	for {
		select {
		case <-h.Done():
			seq++
			m := &ServerMsg{Type: MsgSnapshot, ID: id, Seq: seq, Final: true, Shed: shed}
			fill(m)
			// Push before dropping from inflight so drain's idle check never
			// sees "no queries, empty outbox" with the final still unqueued.
			c.push(m)
			c.finishQuery(id)
			return
		case <-c.closed:
			h.Cancel()
			c.finishQuery(id)
			return
		case <-ticker.C:
			if lateBudget > 0 && !shed && time.Since(start) > lateBudget {
				shed = true
				c.srv.ctr.ShedLate.Add(1)
				h.Cancel() // Done closes with the partial result; loop drains it
				continue
			}
			m := &ServerMsg{Type: MsgSnapshot, ID: id, Seq: seq + 1}
			rows := fill(m)
			if rows < 0 || rows == lastRows {
				continue
			}
			lastRows = rows
			seq++
			c.push(m)
		}
	}
}

func (c *serverConn) finishQuery(id int64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// push enqueues a frame under the connection's backpressure rules and wakes
// the writer. Never blocks. A connection whose final backlog exceeds the
// cap is abusing the protocol (issuing queries far faster than it reads
// results) and is torn down rather than buffered without bound.
func (c *serverConn) push(m *ServerMsg) {
	c.mu.Lock()
	switch {
	case m.Type == MsgSnapshot && !m.Final:
		if c.pending[m.ID] != nil {
			c.srv.ctr.DroppedIntermediates.Add(1)
		}
		c.pending[m.ID] = m
	case m.Type == MsgIngest:
		// Keep the highest unsent watermark: concurrent feeders' broadcasts
		// can reach this outbox out of order, and clients track the max.
		if c.pendingIngest == nil || m.Watermark > c.pendingIngest.Watermark {
			c.pendingIngest = m
		}
	default:
		// A terminal frame supersedes any unsent intermediate for its query.
		delete(c.pending, m.ID)
		c.finals = append(c.finals, m)
	}
	overflow := len(c.finals) > maxQueuedFinals
	c.mu.Unlock()
	if overflow {
		c.setCloseReason(CloseOverflow, "final backlog overflow")
		go c.teardown() // not inline: push is called under watcher stacks
		return
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// next dequeues the next frame to write: terminal frames first, then any
// coalesced intermediate. The inWrite flag marks the dequeued frame as
// still-unflushed until doneWrite, so drains don't close the socket under a
// frame in transit.
func (c *serverConn) next() *ServerMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.finals) > 0 {
		m := c.finals[0]
		c.finals = c.finals[1:]
		c.inWrite = true
		return m
	}
	if m := c.pendingIngest; m != nil {
		c.pendingIngest = nil
		c.inWrite = true
		return m
	}
	for id, m := range c.pending {
		delete(c.pending, id)
		c.inWrite = true
		return m
	}
	c.inWrite = false
	return nil
}

func (c *serverConn) doneWrite() {
	c.mu.Lock()
	c.inWrite = false
	c.mu.Unlock()
}

// idle reports whether no query is in flight and every enqueued frame has
// been written — the condition under which a drain may close the socket.
func (c *serverConn) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight) == 0 && len(c.finals) == 0 && len(c.pending) == 0 &&
		c.pendingIngest == nil && !c.inWrite
}

// writeLoop owns the socket's write side: it drains the outbox whenever
// woken and exits when the connection closes or a write fails. A snapshot is
// encoded by appending into the loop's one frame buffer, behind the room the
// WebSocket header needs, and leaves in a single Write.
func (c *serverConn) writeLoop() {
	frame := make([]byte, wsHeadroom, 4096)
	for {
		select {
		case <-c.wake:
		case <-c.closed:
			return
		}
		for {
			m := c.next()
			if m == nil {
				break
			}
			// Bounded write: a client that stopped reading trips the
			// deadline and is disconnected (teardown below releases its
			// session), instead of parking this goroutine while finals
			// accumulate for it without limit.
			c.ws.SetWriteDeadline(time.Now().Add(writeTimeout))
			var werr error
			if m.Type == MsgSnapshot {
				frame = appendSnapshot(frame[:wsHeadroom], m)
				werr = c.ws.WriteBinary(frame)
			} else if data, err := encodeMsg(m); err == nil {
				werr = c.ws.WriteMessage(data)
			} else if m.ID != 0 && m.Type != MsgError {
				// A control frame that will not encode must not leave its
				// query waiting for a terminal frame that never comes.
				c.push(&ServerMsg{Type: MsgError, ID: m.ID, Error: err.Error()})
			}
			c.doneWrite()
			if werr != nil {
				c.teardown()
				return
			}
		}
	}
}

// drain stops accepting queries, waits for in-flight queries to deliver
// their finals and the outbox to flush (bounded by ctx), then closes. It
// polls the idle condition instead of waiting on the watcher WaitGroup so
// it never races a watcher registration accepted just before the drain.
func (c *serverConn) drain(ctx context.Context) {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	// The close frame at the end of a drain is a goodbye, not a fault: 1001
	// tells the client the server is going away for good (terminal).
	c.setCloseReason(CloseGoingAway, "server draining")

	for !c.idle() {
		select {
		case <-ctx.Done():
			c.teardown()
			return
		case <-c.closed:
			return
		case <-time.After(time.Millisecond):
		}
	}
	c.teardown()
}

// teardown closes the connection exactly once: watchers cancel their
// handles and the session closes. The server forgets the connection only
// when the reader returns.
func (c *serverConn) teardown() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		code, reason := c.closeCode, c.closeReason
		c.mu.Unlock()
		close(c.closed)
		if code != 0 {
			c.ws.CloseWith(code, reason)
		} else {
			c.ws.Close()
		}
		// Watchers observe c.closed, cancel their handles and exit; the
		// session must outlive them since cancellation goes through it.
		c.watchers.Wait()
		c.sess.Close()
	})
}
