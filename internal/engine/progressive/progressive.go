// Package progressive implements the paper's IDEA analogue: a fully
// progressive online-aggregation engine. A query's result can be polled at
// any time and carries CLT confidence margins; completed and partial
// per-query states are cached by query signature and reused when the same
// query is issued again (Galakatos et al., "Revisiting Reuse for Approximate
// Query Processing"), and an experimental extension speculatively executes
// the queries every possible single-bin selection on a linked source
// visualization would trigger (paper Sec. 5.4 / Exp. 3).
//
// # Permuted materialization
//
// Prepare draws one fixed random row permutation and materializes the fact
// table in that order (dataset.ReorderTable), so "scan the next chunk of the
// sampling order" is a sequential range scan over dense column storage
// rather than a random-order gather that cache-misses on every column read.
// Any contiguous window of a fixed random permutation is still a uniform
// random sample of the table, so the CLT math behind partial snapshots
// (engine.GroupState.SnapshotScaled) is unchanged.
//
// # Shared-scan execution
//
// All execution rides one sharedscan.Scanner, whose Options.Parallelism
// workers fold whole blocks of the permuted storage for the attached query state
// that has been served least. Foreground handles, reuse-cached states and
// speculation targets are all consumers of the same scheduler: a cheap
// query completes in about its own fold time instead of waiting on the
// expensive ones beside it, a query's window is a prefix of the
// permutation, and a cancelled query's partial state resumes from the
// cache without re-reading a row. An
// unfiltered dense query, 1-D or 2-D, merges the per-block tables the
// scanner records once per accumulator shape (internal/engine/README.md,
// "Block tables").
//
// # Sessions
//
// OpenSession scopes reuse caches, viz-name maps and speculation rounds to
// one simulated analyst. All sessions attach their consumers to the same
// scanner, so concurrent users share its workers and its recorded block
// tables — the multi-user driver's scaling lever — while keeping their
// exploration state invisible to each other. Within a workflow a session also records which rows pass each
// filter its queries evaluate, so a drill-down step or a sibling viz reads
// them instead of re-evaluating the predicates; the contract — scope, what
// is recorded, the safety rules and why results stay bitwise — is
// internal/engine/README.md, "Recorded selections".
//
// # Published views
//
// The engine's data is an engine.Lineage: each version — the permuted
// storage, the shared scanner over it and the CLT critical value — is one
// immutable engine.View, published with one atomic store. Watermark,
// SnapshotView and every StartQuery's bind are one atomic load, so a query
// never waits for an Append. Append publishes the grown view first and
// extends the scan after, so a query started in between compiles against
// the new version, its consumer reaches the tail once Extend lands, and no
// result names a version Watermark does not yet report. A handle whose
// query completed pins that version's final (sharedscan.Final): a batch
// that lands before the fetch re-arms the cached state for the new rows but
// does not turn the fetched answer back into an estimate.
package progressive

import (
	"fmt"
	"math/rand"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/sharedscan"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// Config tunes the engine.
type Config struct {
	// Speculate enables the think-time speculation extension.
	Speculate bool
}

// maxSpeculations caps how many single-bin selections are speculated per
// link (the source visualization may have hundreds of bins).
const maxSpeculations = 64

// maxSelections caps a session's recorded filter selections. Over the 256
// seed-1 Mixed workflows the distinct filters per workflow are p50 3, p99 7,
// max 8, so a workflow's drill-down chain and brushes fit without eviction.
const maxSelections = 8

// Engine is the progressive engine. The prepared permuted storage and the
// shared-scan scheduler are engine-wide; everything an analyst accumulates —
// reuse caches, the viz-name → query map speculation derives selections
// from, and the current round of speculation targets — lives in a Session.
// Concurrent sessions ride the same scheduler (N users' queries share its
// workers and block tables) without sharing viz namespaces or caches.
type Engine struct {
	cfg Config
	lin engine.Lineage[scanState]
}

// scanState is what each progressive version carries beside the permuted
// storage: the shared scanner over it and the CLT critical value, both
// fixed by Prepare. They are published with the data, so a re-Prepare is
// one pointer swap and a session sees storage and scanner from one Prepare.
type scanState struct {
	scan *sharedscan.Scanner
	z    float64
}

// testHookAppendPublished, when set, runs inside Append after the next view
// is published and before the scan is extended to it.
var testHookAppendPublished func()

// New returns an unprepared engine.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "progressive" }

// Prepare implements engine.Engine. IDEA ingests the raw data without
// pre-processing beyond loading; here that is materializing the fact table
// in one fixed random permutation (the online-sampling order) so progressive
// scans run sequentially over dense storage. Normalized schemas are rejected
// — the paper excludes IDEA from the join experiment because it does not
// support joins.
func (e *Engine) Prepare(db *dataset.Database, opts engine.Options) error {
	opts = opts.Normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := stats.Permutation(rng, db.Fact.NumRows())
	permDB, err := db.ReorderFact(perm)
	if err != nil {
		return fmt.Errorf("progressive: %w", err)
	}
	return e.PrepareReordered(permDB, perm, opts)
}

// PrepareReordered implements engine.ReorderedPreparer: db's fact table is
// already materialized in the sampling permutation perm — a durable
// checkpoint written from this engine's own SnapshotView — so the
// permutation draw and the reorder pass are skipped and the storage is
// adopted as-is. This is the warm-restart fast path: prepare cost becomes
// O(1) in the row count (plus the caller's checkpoint read).
func (e *Engine) PrepareReordered(db *dataset.Database, perm []uint32, opts engine.Options) error {
	if db.IsNormalized() {
		return fmt.Errorf("progressive: joins (normalized schemas) are not supported")
	}
	// The permutation covers the originally prepared prefix; rows beyond it
	// are post-checkpoint appends stored in arrival order, exactly as the
	// live Append path lays them out.
	if len(perm) > db.Fact.NumRows() {
		return fmt.Errorf("progressive: warm prepare: permutation has %d entries for %d rows", len(perm), db.Fact.NumRows())
	}
	opts = opts.Normalize()
	z, err := stats.ZScore(opts.Confidence)
	if err != nil {
		return fmt.Errorf("progressive: %w", err)
	}
	n := db.Fact.NumRows()
	// The caller hands over private storage: the lineage may grow it.
	e.lin.Reset(&engine.View[scanState]{DB: db, Perm: perm, Watermark: int64(n),
		X: scanState{scan: sharedscan.New(n, opts.Parallelism), z: z}})
	return nil
}

// SnapshotView implements engine.ViewSnapshotter: the current database
// view plus the sampling permutation its prepared prefix is stored in.
// Appended batches land as arrival-order tail segments beyond the permuted
// prefix, matching exactly what PrepareReordered accepts back (the warm
// path re-adopts prefix + tail as the new prepared storage, with the
// permutation covering only the prefix — the documented ViewSnapshotter
// contract).
func (e *Engine) SnapshotView() (*dataset.Database, []uint32) { return e.lin.SnapshotView() }

// Append implements engine.Appender: the batch lands as a tail segment of
// the permuted storage (arrival order — the tail is not re-permuted, so the
// sequential-scan property of every claim is preserved), the grown
// view is published, and then the shared scanner extends every registered
// query state with the tail as one more uncovered interval. Active queries
// therefore fold the new rows exactly once mid-scan via the ordinary
// interval clipping, cached complete states re-arm and absorb just the
// delta, and quiesced results are exact over the grown table.
func (e *Engine) Append(rows *dataset.Table) error {
	v, err := e.lin.Append(rows, nil)
	if err != nil {
		return fmt.Errorf("progressive: append: %w", err)
	}
	if testHookAppendPublished != nil {
		testHookAppendPublished()
	}
	if err := v.X.scan.Extend(v.DB, int(v.Watermark)); err != nil {
		return fmt.Errorf("progressive: append: %w", err)
	}
	return nil
}

// Watermark implements engine.Appender.
func (e *Engine) Watermark() int64 { return e.lin.Watermark() }

// OpenSession implements engine.Engine: the session captures the prepared
// storage and scanner, so sessions opened across a re-Prepare stay
// internally consistent (they keep riding the scan they were opened on).
func (e *Engine) OpenSession() engine.Session {
	return &session{
		e:          e,
		cfg:        e.cfg,
		v:          e.lin.Load(),
		states:     make(map[string]*sharedscan.Consumer),
		vizQueries: make(map[string]*query.Query),
	}
}

// ActiveScanConsumers reports how many consumers (across all sessions) are
// attached to the shared scanner right now. The serving layer's lifecycle
// tests use it to assert a disconnected client's queries left the scan.
func (e *Engine) ActiveScanConsumers() int {
	if v := e.lin.Load(); v != nil {
		return v.X.scan.ActiveConsumers()
	}
	return 0
}

// Derived implements engine.DerivedObserver: the block-table ledger of the
// current view's shared scanner.
func (e *Engine) Derived() engine.Derived {
	if v := e.lin.Load(); v != nil {
		return engine.Derived{BlockTables: v.X.scan.BlockTables()}
	}
	return engine.Derived{}
}

var (
	_ engine.Engine          = (*Engine)(nil)
	_ engine.Appender        = (*Engine)(nil)
	_ engine.ScanObserver    = (*Engine)(nil)
	_ engine.DerivedObserver = (*Engine)(nil)
)

// session is one analyst's scope on the prepared engine: its own reuse
// cache, viz-name map and speculation round, all riding the engine's shared
// scanner. Consumers are keyed by query signature per session, so two users
// issuing the same query keep separate states (each folded by the shared
// scheduler's workers) and one user cancelling or reusing never
// surprises another.
type session struct {
	e   *Engine
	cfg Config

	mu sync.Mutex
	// v is the engine view the session compiles against. It binds at
	// OpenSession when the engine is already prepared, otherwise lazily on
	// first use (a session opened at connection time, before the data loads,
	// starts working once Prepare succeeds — the same contract as the
	// stateless engines). Once bound, a session keeps riding the scan it
	// bound to even across a re-Prepare.
	v          *engine.View[scanState]
	states     map[string]*sharedscan.Consumer
	vizQueries map[string]*query.Query
	specs      []*sharedscan.Consumer // current round of speculation targets
	sels       selectionPool
}

// bindLocked loads the engine's current view — one atomic load — and binds
// the session to it: late-binding an unprepared-at-open session, and
// advancing a session on the same scan to the newest version — live
// ingestion publishes a grown view per batch, and new queries must compile
// against it (a plan compiled on a stale view could not cover the scanner's
// extended row range). A session bound to an older scan (opened before a
// re-Prepare) keeps its view. Caller holds s.mu.
func (s *session) bindLocked() {
	if cur := s.e.lin.Load(); cur != nil && (s.v == nil || cur.X.scan == s.v.X.scan) {
		s.v = cur
	}
}

// StartQuery implements engine.Session. If the session caches a state for
// the same query signature (from reuse or speculation) execution resumes
// from it, otherwise a fresh consumer attaches to the shared scan, served
// ahead of every consumer that has been served more. There is no per-query
// goroutine: the handle holds a foreground reference on the consumer, and
// the scheduler's workers drive it to completion.
func (s *session) StartQuery(q *query.Query) (engine.Handle, error) {
	s.mu.Lock()
	s.bindLocked()
	if s.v == nil {
		s.mu.Unlock()
		return nil, engine.ErrNotPrepared
	}
	st, err := s.stateLocked(q, true)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	qc := *q
	s.vizQueries[q.VizName] = &qc
	z := s.v.X.z
	s.mu.Unlock()

	h := engine.NewAsyncHandle()
	h.SetSnapshotFunc(func() *query.Result { return st.Snapshot(z) })
	h.SetPartialFunc(st.PartialSnapshot)
	st.Acquire()
	var once sync.Once
	finish := func(final *sharedscan.Final) {
		once.Do(func() {
			st.Release()
			if final != nil {
				// Completed (immediately, on full reuse of a cached state):
				// pin the answer to the version that completed, so a batch
				// re-arming the state before the fetch cannot unfinish it.
				// The handle then holds the final alone, not the consumer.
				h.SetSnapshotFunc(final.Snapshot)
				h.SetPartialFunc(final.Partial)
				h.SetCancelFunc(nil)
			}
			h.Finish()
		})
	}
	var deregister func()
	h.SetCancelFunc(func() {
		// Cancel: drop the reference (coverage stays cached) and withdraw
		// the completion callback so cancelled handles do not pile up on a
		// consumer that may never finish.
		finish(nil)
		deregister()
	})
	deregister = st.WhenDone(finish)
	return h, nil
}

// stateLocked returns the session's cached consumer for q's signature,
// creating it if needed. A new consumer of a filtered query reads the
// session's most specific recorded selection its filter contains and, with
// claim, records its own filter's rows into a slot of the pool. Caller holds
// s.mu.
func (s *session) stateLocked(q *query.Query, claim bool) (*sharedscan.Consumer, error) {
	sig, keys := q.SignatureKeys()
	if st, ok := s.states[sig]; ok {
		return st, nil
	}
	plan, err := engine.Compile(s.v.DB, q)
	if err != nil {
		return nil, err
	}
	st := s.v.X.scan.NewConsumer(plan, sig, s.sels.use(plan, keys, claim))
	s.states[sig] = st
	return st, nil
}

// selectionPool is a session's recorded filter selections (README.md,
// "Recorded selections"): at most maxSelections slots, each an engine.Selection
// sized to the table view it was last reset for and reused for the
// session's life. A query reads only a slot that already holds records, and
// claims one only when no slot holds its exact predicate set. Slots are
// claimed by the queries of one workflow and evicted least recently used;
// WorkflowStart and Close invalidate them all, so nothing recorded is read
// across workflows or sessions. Guarded by the session's mutex.
type selectionPool struct {
	slots []selectionSlot
	tick  uint64
}

type selectionSlot struct {
	sel  *engine.Selection
	used uint64 // pool tick of the last query that read or claimed it
}

// use returns plan's selection reuse: the slot holding records with the
// most predicates all in keys (plan's predicate keys) to read from, and,
// with claim and no slot — recorded or not — holding exactly keys' set, a
// slot claimed to record plan's filter: a free one, else the least recently
// used one other than the slot read from. A slot claimed a moment ago by a
// sibling query that has not folded yet holds no records, so it is not read
// and not claimed again. Speculation targets pass claim false.
func (p *selectionPool) use(plan *engine.Compiled, keys []string, claim bool) *engine.SelectionUse {
	if len(keys) == 0 {
		return nil
	}
	p.tick++
	fi, best, exact := -1, -1, false
	for i := range p.slots {
		n, ex := p.slots[i].sel.Match(keys)
		exact = exact || ex
		if n > best && p.slots[i].sel.Recorded() {
			fi, best = i, n
		}
	}
	var from, into *engine.Selection
	if fi >= 0 {
		p.slots[fi].used = p.tick
		from = p.slots[fi].sel
	}
	if claim && !exact {
		var sl *selectionSlot
		if len(p.slots) < maxSelections {
			p.slots = append(p.slots, selectionSlot{sel: new(engine.Selection)})
			sl = &p.slots[len(p.slots)-1]
		} else {
			for i := range p.slots {
				if c := &p.slots[i]; c.sel != from && (sl == nil || c.used < sl.used) {
					sl = c
				}
			}
		}
		sl.sel.Reset(plan.NumRows, keys)
		sl.used = p.tick
		into = sl.sel
	}
	return engine.NewSelectionUse(plan, keys, from, into)
}

// invalidate forgets every recorded selection, keeping the slots' memory.
func (p *selectionPool) invalidate() {
	for _, sl := range p.slots {
		sl.sel.Invalidate()
	}
}

// LinkVizs implements engine.Session. With speculation enabled, establishing
// a link attaches the queries each single-bin selection on the source would
// trigger on the target as background consumers of the shared scan: they
// ride the same scheduler as user queries but are suspended whenever a
// foreground query is attached (IDEA's scheduler gives user queries
// priority, so speculation consumes only think time). A new link withdraws
// the previous round's targets (their partial coverage stays cached for
// reuse).
func (s *session) LinkVizs(from, to string) {
	if !s.cfg.Speculate {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	srcQ := s.vizQueries[from]
	dstQ := s.vizQueries[to]
	if srcQ == nil || dstQ == nil {
		return
	}
	if len(srcQ.Bins) == 0 {
		// A malformed or not-yet-validated source viz query has no bins to
		// derive selections from; speculating on it would panic below.
		return
	}
	srcState, ok := s.states[srcQ.Signature()]
	if !ok {
		return
	}
	srcSnap := srcState.Snapshot(s.v.X.z)
	srcBin := srcQ.Bins[0]
	dict := srcState.Plan().BinDicts[0]

	var targets []*sharedscan.Consumer
	for _, key := range srcSnap.SortedKeys() {
		if len(targets) >= maxSpeculations {
			break
		}
		pred := query.SelectionPredicate(srcBin, key.A, dict)
		specQ := *dstQ
		specQ.Filter = dstQ.Filter.And(pred)
		st, err := s.stateLocked(&specQ, false)
		if err != nil {
			continue
		}
		targets = append(targets, st)
	}
	for _, old := range s.specs {
		old.Unspeculate()
	}
	s.specs = targets
	for _, st := range targets {
		st.Speculate()
	}
}

// DeleteViz implements engine.Session.
func (s *session) DeleteViz(name string) {
	s.mu.Lock()
	delete(s.vizQueries, name)
	s.mu.Unlock()
}

// WorkflowStart implements engine.Session: caches are per exploration
// workflow, so each workflow starts cold. Speculation targets are withdrawn
// and the dropped states are discarded from the scanner's extension
// registry (they will not be asked to absorb future ingest batches);
// consumers still referenced by in-flight handles finish their scan and
// then fall off the scheduler.
func (s *session) WorkflowStart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.specs {
		st.Unspeculate()
	}
	s.specs = nil
	if s.v != nil {
		for _, st := range s.states {
			st.Discard()
		}
		s.states = make(map[string]*sharedscan.Consumer)
		s.vizQueries = make(map[string]*query.Query)
	}
	s.sels.invalidate()
}

// WorkflowEnd implements engine.Session.
func (s *session) WorkflowEnd() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.specs {
		st.Unspeculate()
	}
	s.specs = nil
}

// Close implements engine.Session: the session's speculation targets leave
// the scan and its cached states drop out of the extension registry; states
// referenced by in-flight handles finish on their own.
func (s *session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.specs {
		st.Unspeculate()
	}
	s.specs = nil
	for _, st := range s.states {
		st.Discard()
	}
	s.states = make(map[string]*sharedscan.Consumer)
	s.sels.invalidate()
	s.sels = selectionPool{}
}

// stateProgress reports the scan progress of the session's cached state.
func (s *session) stateProgress(q *query.Query) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[q.Signature()]
	if !ok {
		return 0
	}
	return st.Progress()
}

var _ engine.Session = (*session)(nil)
