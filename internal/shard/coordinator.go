package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// Pinger is the optional liveness capability of a coordinator backend: a
// cheap out-of-band health probe (for *server.Remote it is an HTTP GET of
// the shard's /healthz). Backends without it are assumed alive until a
// query or ingest apply against them fails.
type Pinger interface {
	Ping() error
}

// wmStep records that partition-local watermark Local corresponds to global
// data version Global: after the batch that produced this step is fully
// absorbed by a partition's replicas, a query answering at Local covers
// everything up to Global rows of the unified timeline. The JSON shape is
// the journal's persisted form — see journal.go.
type wmStep struct {
	Local  int64 `json:"local"`
	Global int64 `json:"global"`
}

// Options tunes a replicated coordinator.
type Options struct {
	// MinCoverage is the population-fraction floor for degraded answers:
	// when the reachable partitions own less than this fraction of the
	// global fact rows, the coordinator refuses (nil snapshots) instead of
	// serving the degraded merge. 0 serves any non-empty coverage; 1
	// restores the strict all-partitions-or-nothing behavior.
	MinCoverage float64
	// Journal, when set, persists the control plane: version-log steps and
	// topology changes are journaled before they are acknowledged, and a
	// standby coordinator can Restore from the journal's reduction. nil
	// keeps the in-memory-only behavior.
	Journal *CoordJournal
}

// replica is one backend serving one hash partition. Health and sync flags
// have their own lock so query handles and the health loop can flip them
// without touching the coordinator's routing lock.
type replica struct {
	be   engine.Engine
	name string
	// addr is the replica's dialable address, journaled with the topology
	// so a recovering coordinator can re-attach it; "" for in-process
	// backends.
	addr string
	// matDB is the database in-process appends are materialized against:
	// the partition database the replica was prepared from, or the
	// transferred view for a rebalanced-in replica (whose dictionaries are
	// its own). nil for pure wire sinks.
	matDB *dataset.Database

	mu      sync.Mutex
	healthy bool
	synced  bool
	// quarantined marks confirmed content divergence: the replica is
	// excluded from query fan-out AND ingest (worse than unsynced — its
	// data is wrong, not stale) until it is removed and readmitted through
	// the rebalance path with freshly prepared state.
	quarantined bool
}

func newReplica(be engine.Engine, name string, matDB *dataset.Database) *replica {
	return &replica{
		be: be, name: name, matDB: matDB,
		healthy: true, synced: true,
	}
}

func (r *replica) state() (healthy, synced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy, r.synced
}

func (r *replica) setHealthy(h bool) {
	r.mu.Lock()
	r.healthy = h
	r.mu.Unlock()
}

func (r *replica) markUnsynced() {
	r.mu.Lock()
	r.synced = false
	r.mu.Unlock()
}

// unreachable reports whether the replica's backend is confirmed gone, as
// opposed to alive and deliberately ending queries. Backends without a
// Pinger cannot be probed and are presumed reachable.
func (r *replica) unreachable() bool {
	p, ok := r.be.(Pinger)
	return ok && p.Ping() != nil
}

func (r *replica) setSynced(s bool) {
	r.mu.Lock()
	r.synced = s
	r.mu.Unlock()
}

func (r *replica) isQuarantined() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined
}

// setQuarantined flags the replica divergent (also dropping its sync flag)
// and reports whether the flag actually flipped.
func (r *replica) setQuarantined() (flipped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.quarantined {
		return false
	}
	r.quarantined = true
	r.synced = false
	return true
}

// watermark reads the replica's confirmed local watermark; base is the
// fallback for backends without the capability (a static engine never moves
// past Prepare).
func (r *replica) watermark(base int64) int64 {
	if wm, ok := r.be.(engine.Watermarker); ok {
		return wm.Watermark()
	}
	return base
}

// Coordinator fans queries out over hash partitions, each served by a set
// of replicas, and merges their raw accumulator fragments into one
// progressive result. It implements engine.Engine (so the serving layer and
// the driver use it unchanged), engine.Appender and ingest.Sink (routed
// live ingest, applied to every in-sync replica) and
// engine.TopologyObserver (per-partition watermarks and replica health for
// /healthz).
//
// Availability semantics: a query fans out to one replica per partition and
// fails over to the next live replica when its current one dies mid-stream.
// When a whole partition is unreachable the merged snapshot is served
// anyway, annotated with a query.Coverage block naming exactly which
// fraction of the population answered — degraded, never silently biased as
// full, and refused entirely below Options.MinCoverage.
//
// Partition order is fixed at construction and every merge folds fragments
// in that order — see the package comment for why the fixed order is
// load-bearing. Replica order within a partition is the failover
// preference order.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	sets     [][]*replica // partition -> replica set; mutable via rebalance
	prepared bool
	partDBs  []*dataset.Database // shard-local dbs for Materialize and rebalance targets
	steps    [][]wmStep          // per partition, ascending in both coordinates
	global   int64               // global data version: base rows + all routed batch rows
	z        float64
	prepOpts engine.Options
	capture  [][]*ingest.Batch // per partition: non-nil while a rebalance captures the ingest tail

	aeChecks     atomic.Int64
	aeMismatches atomic.Int64
	aeErrors     atomic.Int64
	aeRound      atomic.Int64

	// applySeq / applyDone count ApplyBatch entries and exits; equality
	// means no batch is in flight, which is what lets the health loop's
	// divergence audit tell phantom rows from a watermark read racing a
	// legitimate apply.
	applySeq  atomic.Int64
	applyDone atomic.Int64

	// probe is the coordinator's own session, through which the anti-entropy
	// sweep runs its fragments: one standing sub-session per replica probed.
	probe *coordSession
}

// NewCoordinator wraps one backend per partition (no replication): the
// PR 8 topology, kept as the simple constructor. The slice order assigns
// partition IDs: backends[i] serves partition i, forever.
func NewCoordinator(backends ...engine.Engine) (*Coordinator, error) {
	sets := make([][]engine.Engine, len(backends))
	for i, be := range backends {
		sets[i] = []engine.Engine{be}
	}
	return NewReplicated(Options{}, sets...)
}

// NewReplicated wraps one replica set per partition. replicaSets[i] lists
// the backends serving partition i in failover-preference order; every
// partition needs at least one. Replicas of a partition must be prepared
// identically (same dataset, same hash, same fan-out) — partials are
// deterministic, so the anti-entropy check can hold them to that bitwise.
func NewReplicated(opts Options, replicaSets ...[]engine.Engine) (*Coordinator, error) {
	specs := make([][]ReplicaSpec, len(replicaSets))
	for i, set := range replicaSets {
		for _, be := range set {
			specs[i] = append(specs[i], ReplicaSpec{Engine: be})
		}
	}
	return NewReplicatedSpecs(opts, specs...)
}

// ReplicaSpec names one replica backend and, for remote backends, the
// address a recovering coordinator would re-dial it at.
type ReplicaSpec struct {
	Engine engine.Engine
	// Addr is journaled with the topology; empty for in-process backends.
	Addr string
	// Name overrides the derived replica name. A recovering coordinator
	// passes the journaled name so the restored topology is identical to
	// the persisted one; empty derives replicaName as usual.
	Name string
}

// NewReplicatedSpecs is NewReplicated with per-replica metadata (addresses
// and recovered names) for journaled topologies.
func NewReplicatedSpecs(opts Options, specs ...[]ReplicaSpec) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one partition")
	}
	if opts.MinCoverage < 0 || opts.MinCoverage > 1 {
		return nil, fmt.Errorf("shard: min coverage %v outside [0,1]", opts.MinCoverage)
	}
	co := &Coordinator{opts: opts, sets: make([][]*replica, len(specs))}
	co.probe = co.newSession()
	for i, set := range specs {
		if len(set) == 0 {
			return nil, fmt.Errorf("shard: partition %d has no replicas", i)
		}
		for j, spec := range set {
			name := spec.Name
			if name == "" {
				name = replicaName(spec.Engine, i, j)
			}
			r := newReplica(spec.Engine, name, nil)
			r.addr = spec.Addr
			co.sets[i] = append(co.sets[i], r)
		}
	}
	return co, nil
}

// replicaName labels a replica for topology reporting: the backend's
// engine name plus its partition/ordinal coordinates.
func replicaName(be engine.Engine, part, ordinal int) string {
	return fmt.Sprintf("p%d/r%d/%s", part, ordinal, be.Name())
}

// Shards returns the number of hash partitions.
func (co *Coordinator) Shards() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.sets)
}

// Replicas returns the current replica count of one partition.
func (co *Coordinator) Replicas(part int) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	if part < 0 || part >= len(co.sets) {
		return 0
	}
	return len(co.sets[part])
}

// replicaSet snapshots one partition's replica slice under the lock.
func (co *Coordinator) replicaSet(part int) []*replica {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append([]*replica(nil), co.sets[part]...)
}

// Name identifies the coordinator in reports: the backend engine name
// prefixed with the fan-out, e.g. "shard3/progressive", or
// "shard2x2/progressive" for a replicated tier (max replicas per
// partition).
func (co *Coordinator) Name() string {
	co.mu.Lock()
	defer co.mu.Unlock()
	maxR := 1
	for _, set := range co.sets {
		if len(set) > maxR {
			maxR = len(set)
		}
	}
	inner := co.sets[0][0].be.Name()
	if maxR == 1 {
		return fmt.Sprintf("shard%d/%s", len(co.sets), inner)
	}
	return fmt.Sprintf("shard%dx%d/%s", len(co.sets), maxR, inner)
}

// Prepare partitions db across the partitions and prepares every replica
// with its partition. For a *server.Remote backend, Prepare is the
// client-side sanity check that the shard process serves exactly the
// partition this coordinator computed (same dataset, same hash, same
// fan-out).
func (co *Coordinator) Prepare(db *dataset.Database, opts engine.Options) error {
	opts = opts.Normalize()
	z, err := stats.ZScore(opts.Confidence)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	co.mu.Lock()
	nParts := len(co.sets)
	sets := make([][]*replica, nParts)
	for i := range co.sets {
		sets[i] = append([]*replica(nil), co.sets[i]...)
	}
	co.mu.Unlock()

	parts, err := Partition(db, nParts)
	if err != nil {
		return err
	}
	for i, set := range sets {
		for _, r := range set {
			if err := r.be.Prepare(parts[i], opts); err != nil {
				return fmt.Errorf("shard: prepare %s: %w", r.name, err)
			}
			r.matDB = parts[i]
		}
	}
	co.mu.Lock()
	co.partDBs = parts
	co.global = int64(db.Fact.NumRows())
	co.steps = make([][]wmStep, nParts)
	co.capture = make([][]*ingest.Batch, nParts)
	for i := range co.steps {
		// The base step: a partition answering at its full base size covers
		// the whole prepared dataset.
		co.steps[i] = []wmStep{{Local: int64(parts[i].Fact.NumRows()), Global: co.global}}
	}
	co.z = z
	co.prepOpts = opts
	co.prepared = true
	co.mu.Unlock()
	// The prepared topology is the journal's base snapshot; a coordinator
	// that cannot persist its control plane must not start serving it.
	if err := co.logState(); err != nil {
		return fmt.Errorf("shard: journal prepared state: %w", err)
	}
	return nil
}

// translate floors partition i's local watermark w onto the global row
// axis: the largest recorded global version whose local step is <= w. A
// local watermark below the base partition size (mid-Prepare, or a replica
// that restarted from an older checkpoint) translates to 0 — honest
// "staler than any version I know". Callers hold co.mu.
func (co *Coordinator) translate(i int, w int64) int64 {
	steps := co.steps[i]
	g := int64(0)
	for _, s := range steps {
		if s.Local <= w {
			g = s.Global
		} else {
			break
		}
	}
	return g
}

// partitionWatermark reads partition i's best confirmed local watermark:
// the max over its replicas (absorption is a data property, independent of
// which replicas are currently reachable). Quarantined replicas are
// excluded — rows a replica was never routed are not absorption.
func (co *Coordinator) partitionWatermark(i int) int64 {
	co.mu.Lock()
	var base int64
	if len(co.steps) > i && len(co.steps[i]) > 0 {
		base = co.steps[i][0].Local
	}
	set := append([]*replica(nil), co.sets[i]...)
	co.mu.Unlock()
	best := int64(0)
	for _, r := range set {
		if r.isQuarantined() {
			continue
		}
		if w := r.watermark(base); w > best {
			best = w
		}
	}
	return best
}

// Watermark implements engine.Watermarker on the global axis: the minimum
// over all partitions' translated watermarks. A merged snapshot never
// claims a Watermark above this.
func (co *Coordinator) Watermark() int64 {
	min := int64(math.MaxInt64)
	for i := 0; i < co.Shards(); i++ {
		w := co.partitionWatermark(i)
		co.mu.Lock()
		g := co.translate(i, w)
		co.mu.Unlock()
		if g < min {
			min = g
		}
	}
	if min == math.MaxInt64 {
		return 0
	}
	return min
}

// Topology implements engine.TopologyObserver.
func (co *Coordinator) Topology() engine.Topology {
	co.mu.Lock()
	sets := make([][]*replica, len(co.sets))
	bases := make([]int64, len(co.sets))
	for i := range co.sets {
		sets[i] = append([]*replica(nil), co.sets[i]...)
		if len(co.steps) > i && len(co.steps[i]) > 0 {
			bases[i] = co.steps[i][0].Local
		}
	}
	co.mu.Unlock()

	topo := engine.Topology{
		Partitions:            make([]engine.PartitionTopology, len(sets)),
		AntiEntropyChecks:     co.aeChecks.Load(),
		AntiEntropyMismatches: co.aeMismatches.Load(),
		AntiEntropyErrors:     co.aeErrors.Load(),
		MinCoverage:           co.opts.MinCoverage,
	}
	for i, set := range sets {
		pt := engine.PartitionTopology{Replicas: make([]engine.ReplicaTopology, 0, len(set))}
		for _, r := range set {
			healthy, synced := r.state()
			w := r.watermark(bases[i])
			co.mu.Lock()
			g := co.translate(i, w)
			co.mu.Unlock()
			pt.Replicas = append(pt.Replicas, engine.ReplicaTopology{
				Name: r.name, Healthy: healthy, Synced: synced,
				Quarantined: r.isQuarantined(), Addr: r.addr, Watermark: g,
			})
		}
		w := co.partitionWatermark(i)
		co.mu.Lock()
		pt.Watermark = co.translate(i, w)
		co.mu.Unlock()
		topo.Partitions[i] = pt
	}
	return topo
}

// Append implements engine.Appender: it converts the materialized rows
// back into a batch (ingest.FromTable, Materialize's inverse) and routes
// it. This is what lets an ingest.EngineSink or the durable WAL replay
// treat a coordinator like any other appending engine.
func (co *Coordinator) Append(rows *dataset.Table) error {
	return co.ApplyBatch(ingest.FromTable(rows, 0, rows.NumRows()), nil)
}

// ApplyBatch implements ingest.Sink: route the batch's rows to their home
// partitions, apply every non-empty sub-batch to each in-sync live replica,
// wait until each confirms absorption, then publish the new global version.
// A replica that fails (or is skipped because it is down) is marked
// unsynced — it keeps serving at its honestly stale watermark and rejoins
// the ingest path only once a rebalance hands it the current state. The
// batch as a whole fails only when some partition with routed rows has no
// live replica left to absorb them.
func (co *Coordinator) ApplyBatch(b *ingest.Batch, _ *dataset.Table) error {
	n := co.Shards()
	subs, err := RouteBatch(b, n)
	if err != nil {
		return err
	}

	co.mu.Lock()
	if !co.prepared {
		co.mu.Unlock()
		return engine.ErrNotPrepared
	}
	co.applySeq.Add(1)
	defer co.applyDone.Add(1)
	// Reserve the new steps under the lock: concurrent ApplyBatch calls are
	// the caller's bug, but a racing reader must still see consistent steps.
	targets := make([]int64, n)
	newGlobal := co.global + int64(b.NumRows())
	sets := make([][]*replica, n)
	for i := range co.sets {
		prev := co.steps[i][len(co.steps[i])-1].Local
		targets[i] = prev + int64(subs[i].NumRows())
		sets[i] = append([]*replica(nil), co.sets[i]...)
		// A rebalance in flight captures the tail it must replay before the
		// routing flip; the capturing goroutine owns batches appended here.
		if co.capture[i] != nil && subs[i].NumRows() > 0 {
			co.capture[i] = append(co.capture[i], subs[i])
		}
	}
	co.mu.Unlock()

	for i, set := range sets {
		if subs[i].NumRows() == 0 {
			continue
		}
		applied := false
		var firstErr error
		for _, r := range set {
			if r.isQuarantined() {
				// Divergent content: never feed it more data. Readmission
				// goes through remove + re-prepare + the rebalance path.
				continue
			}
			healthy, synced := r.state()
			if !healthy || !synced {
				// Down or already behind: this replica misses the batch.
				r.markUnsynced()
				continue
			}
			if err := co.applyToReplica(r, subs[i], targets[i]); err != nil {
				r.setHealthy(false)
				r.markUnsynced()
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			applied = true
		}
		if !applied {
			if firstErr == nil {
				firstErr = fmt.Errorf("no live replica")
			}
			return fmt.Errorf("shard: partition %d cannot absorb ingest: %w", i, firstErr)
		}
	}

	// Journal the step before publishing or acking it: a crash after the
	// journal write recovers to a state that includes this batch (the
	// replicas hold it), a crash before recovers to one that doesn't (the
	// batch was never acked). A journal failure refuses the ack outright.
	if err := co.logStep(targets, newGlobal); err != nil {
		return fmt.Errorf("shard: journal version step: %w", err)
	}

	co.mu.Lock()
	co.global = newGlobal
	for i := range co.steps {
		co.steps[i] = append(co.steps[i], wmStep{Local: targets[i], Global: newGlobal})
	}
	co.mu.Unlock()
	return nil
}

// applyToReplica ships one routed sub-batch to one replica and waits for
// its confirmed absorption.
func (co *Coordinator) applyToReplica(r *replica, sub *ingest.Batch, target int64) error {
	if sink, ok := r.be.(ingest.Sink); ok {
		// Remote replica: ship the wire batch; the shard server materializes
		// and validates against its own partition.
		if err := sink.ApplyBatch(sub, nil); err != nil {
			return fmt.Errorf("apply to %s: %w", r.name, err)
		}
		return co.waitWatermark(r, target)
	}
	app, ok := r.be.(engine.Appender)
	if !ok {
		return fmt.Errorf("%s (%s) cannot absorb ingest", r.name, r.be.Name())
	}
	// In-process replica: materialize against the replica's own database so
	// dictionary interning and FK validation happen in its storage's terms.
	tbl, err := ingest.Materialize(r.matDB, sub)
	if err != nil {
		return fmt.Errorf("materialize for %s: %w", r.name, err)
	}
	if err := app.Append(tbl); err != nil {
		return fmt.Errorf("append to %s: %w", r.name, err)
	}
	return nil
}

// applyTimeout bounds the post-route wait for a remote replica to confirm
// absorption.
const applyTimeout = 15 * time.Second

// waitWatermark polls one replica until its confirmed watermark reaches
// target. Remote watermarks advance via the server's post-apply ingest
// broadcast, so this is a short wait in practice; applyTimeout turns a dead
// replica into an error instead of a hang.
func (co *Coordinator) waitWatermark(r *replica, target int64) error {
	wm, ok := r.be.(engine.Watermarker)
	if !ok {
		return nil
	}
	deadline := time.Now().Add(applyTimeout)
	for wm.Watermark() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s watermark stuck at %d, want %d",
				r.name, wm.Watermark(), target)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// OpenSession returns a session that fans every call out, creating one
// sub-session per replica on demand (a failover may route a query to a
// replica the session never touched before).
func (co *Coordinator) OpenSession() engine.Session { return co.newSession() }

func (co *Coordinator) newSession() *coordSession {
	return &coordSession{co: co, subs: make(map[*replica]engine.Session)}
}

func (co *Coordinator) eachReplica(f func(*replica)) {
	co.mu.Lock()
	var all []*replica
	for _, set := range co.sets {
		all = append(all, set...)
	}
	co.mu.Unlock()
	for _, r := range all {
		f(r)
	}
}

// ActiveScanConsumers implements engine.ScanObserver by summing over
// replicas that have the capability.
func (co *Coordinator) ActiveScanConsumers() int {
	n := 0
	co.eachReplica(func(r *replica) {
		if obs, ok := r.be.(engine.ScanObserver); ok {
			n += obs.ActiveScanConsumers()
		}
	})
	return n
}

// coordSession fans session calls out with one lazily created sub-session
// per replica.
type coordSession struct {
	co *Coordinator

	mu   sync.Mutex
	subs map[*replica]engine.Session
}

// sessionOf returns the cached sub-session for r, creating it on first
// use.
func (s *coordSession) sessionOf(r *replica) engine.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[r]; ok {
		return sub
	}
	sub := r.be.OpenSession()
	s.subs[r] = sub
	return sub
}

// invalidate drops a sub-session whose connection died so the next
// failover attempt on that replica dials fresh.
func (s *coordSession) invalidate(r *replica, sub engine.Session) {
	s.mu.Lock()
	if s.subs[r] == sub {
		delete(s.subs, r)
	}
	s.mu.Unlock()
	sub.Close()
}

// drop closes and forgets r's sub-session, if any: r left the topology.
func (s *coordSession) drop(r *replica) {
	s.mu.Lock()
	sub, ok := s.subs[r]
	s.mu.Unlock()
	if ok {
		s.invalidate(r, sub)
	}
}

func (s *coordSession) StartQuery(q *query.Query) (engine.Handle, error) {
	s.co.mu.Lock()
	prepared := s.co.prepared
	s.co.mu.Unlock()
	if !prepared {
		return nil, engine.ErrNotPrepared
	}
	h, err := newCoordHandle(s.co, q, func(r *replica) (engine.Handle, error) { return s.startOn(r, q) })
	if err != nil {
		return nil, err
	}
	return h, nil
}

// startOn starts q on r's sub-session. A session pinned to a dead
// connection stays dead; a failed start retries once on a fresh one so a
// recovered replica is actually reachable.
func (s *coordSession) startOn(r *replica, q *query.Query) (engine.Handle, error) {
	sub := s.sessionOf(r)
	sh, err := sub.StartQuery(q)
	if err != nil {
		s.invalidate(r, sub)
		return s.sessionOf(r).StartQuery(q)
	}
	return sh, nil
}

func (s *coordSession) each(f func(engine.Session)) {
	s.mu.Lock()
	subs := make([]engine.Session, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		f(sub)
	}
}

func (s *coordSession) LinkVizs(from, to string) {
	s.each(func(sub engine.Session) { sub.LinkVizs(from, to) })
}

func (s *coordSession) DeleteViz(name string) {
	s.each(func(sub engine.Session) { sub.DeleteViz(name) })
}

func (s *coordSession) WorkflowStart() {
	s.each(func(sub engine.Session) { sub.WorkflowStart() })
}

func (s *coordSession) WorkflowEnd() {
	s.each(func(sub engine.Session) { sub.WorkflowEnd() })
}

func (s *coordSession) Close() {
	s.mu.Lock()
	subs := s.subs
	s.subs = make(map[*replica]engine.Session)
	s.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}
