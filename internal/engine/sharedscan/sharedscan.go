// Package sharedscan implements a cooperative shared-scan scheduler for the
// progressive engines: one circular scan cursor per prepared table, driven by
// a bounded worker pool, that folds each chunk of sequential (permutation-
// ordered) storage through every attached consumer state.
//
// # Why a shared cursor
//
// Progressive execution previously ran one goroutine per in-flight query,
// each streaming the whole row permutation on its own. An interaction that
// re-queries N linked visualizations therefore made N independent full
// passes over memory. With a shared cursor, all concurrent consumers ride
// the same pass: a worker claims the next chunk [lo, hi) once and folds it
// through every attached consumer, so N-query throughput is bounded by one
// memory sweep plus N cheap per-chunk folds instead of N sweeps.
//
// # Wrap-around completion and uniformity
//
// A consumer attaches at the cursor's current offset and completes after the
// cursor wraps past its start — it observes the circular window
// [start, start+numRows) mod numRows, i.e. every row exactly once. Because
// the underlying storage holds rows in a fixed random permutation, any
// contiguous window of the scan order is still a uniform random sample of
// the table, so partial snapshots keep the same CLT confidence math as a
// from-the-front prefix scan (engine.GroupState.SnapshotScaled).
//
// Exactly-once folding does not depend on chunk alignment: each consumer
// tracks its uncovered row ranges, and the dispatcher clips every claimed
// chunk against them under the scheduler lock. That also gives pause/resume
// for free — a consumer detached mid-scan (a cancelled query whose partial
// state stays in the reuse cache) keeps its coverage and continues from
// wherever the cursor is when it reattaches, never folding a row twice.
//
// # Parallelism
//
// Up to the configured number of workers claim chunks concurrently; each
// worker folds into its own per-consumer engine.GroupState shard, so the hot
// loop takes no shared locks beyond chunk dispatch. Snapshots briefly lock
// all shards of one consumer and combine them with engine.GroupState.Merge.
//
// Foreground consumers (user queries) have strict priority: while any is
// attached, purely speculative consumers are suspended — not dispatched at
// all, coverage intact — and resume the moment foreground work drains. So
// speculation consumes think time, never query time, and costs one shared
// per-chunk fold instead of a competing full scan.
//
// # Live ingestion: Extend and delta consumers
//
// Extend grows the scanned table mid-flight: appended rows land as a tail
// segment of the sequential storage, the cursor's wrap point moves, and
// every registered consumer — attached or paused, mid-sweep or already
// complete — gains the tail as one more uncovered interval. The existing
// uncovered-interval clipping then delivers the new rows to each consumer
// exactly once, interleaved with whatever of the old region it had left; a
// consumer that had already completed is re-armed (a fresh done epoch) and
// finishes again once the tail is folded, while the handles it had already
// finished keep the final of the version they were told completed (Final).
// Because the table view changed, Extend rebinds each consumer's compiled
// plan to the new view; worker shards migrate their accumulated state to the
// new plan on first touch (bin keys are plan-independent, so the merge is
// exact). Partial snapshots taken mid-extension scale against the extended
// population — the covered window is no longer a perfectly uniform sample
// of old+tail, an approximation the staleness metric (not the CLT margins)
// is the honest lens on; completed snapshots are exact regardless.
package sharedscan

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// span is a half-open row range [lo, hi).
type span struct{ lo, hi int }

// Scanner is the shared circular-scan scheduler for one prepared table. Its
// storage-facing contract is engine.GroupState.ScanRange, so it assumes the
// table rows are already materialized in scan (permutation) order.
type Scanner struct {
	numRows int
	chunk   int
	workers int

	mu     sync.Mutex
	pos    int         // next chunk start in [0, numRows), on the chunk grid
	active []*Consumer // attached, with unassigned rows; foreground first
	idle   []int       // free worker ids; workers exit when active drains
	all    map[*Consumer]struct{}
	// onClaim, when set before the first consumer attaches, sees every
	// chunk start a worker claims, under the lock (in-package tests).
	onClaim func(lo int)

	blocks blockRegistry
}

// blockRegistry is the scanner's block tables (README.md, "Per-block scan",
// "Block tables"): one engine.Blocks per accumulator shape that a
// consumer's plan has, recorded by the workers as they fold and dropped
// with the scanner. It is derived from the table alone and holds no
// query's answer. Its lock is its own, taken once per shard and plan, never
// under the scheduler lock.
type blockRegistry struct {
	mu     sync.Mutex
	shapes map[string]*engine.Blocks
}

// lookup returns the block tables of plan's shape, nil when plan's scans
// cannot merge any (engine.Compiled.BlockShape). The shape key leaves the
// dense geometry out, so a shape keeps one entry however often appends widen
// its domain: a plan of a larger view in a new geometry replaces the entry
// with empty tables in its own, and a plan of an older view, whose geometry
// the entry no longer has, gets nil and folds its rows. A shard that holds a
// replaced entry keeps using it for the plan it holds it with.
func (r *blockRegistry) lookup(plan *engine.Compiled) *engine.Blocks {
	var buf [192]byte
	key, ok := plan.AppendBlockShape(buf[:0])
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.shapes[string(key)]
	switch {
	case b != nil && b.Serves(plan):
		return b
	case b != nil && !b.Supersedes(plan):
		return nil
	}
	if r.shapes == nil {
		r.shapes = make(map[string]*engine.Blocks)
	}
	b = engine.NewBlocks(plan)
	r.shapes[string(key)] = b
	return b
}

// New returns a scheduler over numRows rows of sequential storage, claiming
// chunkRows rows per dispatch (default engine.BatchRows) and running at most
// workers scan goroutines (minimum 1).
func New(numRows, chunkRows, workers int) *Scanner {
	if chunkRows <= 0 {
		chunkRows = engine.BatchRows
	}
	if workers < 1 {
		workers = 1
	}
	s := &Scanner{numRows: numRows, chunk: chunkRows, workers: workers,
		all: make(map[*Consumer]struct{})}
	s.idle = make([]int, workers)
	for i := range s.idle {
		s.idle[i] = i
	}
	return s
}

// Extend grows the scan to newRows rows: db must be the extended table view
// the appended tail belongs to. Every registered consumer's plan is rebound
// to the new view and its uncovered ranges gain the rows between its old
// target and newRows, so active states absorb the delta exactly once and
// already-complete states re-arm and run again over just the tail. Callers
// serialize Extend with their append path (one data version at a time).
func (s *Scanner) Extend(db *dataset.Database, newRows int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if newRows < s.numRows {
		return fmt.Errorf("sharedscan: extend to %d rows below current %d", newRows, s.numRows)
	}
	if newRows > s.numRows {
		s.numRows = newRows
	}
	var firstErr error
	// Plans are deduplicated by query signature: sessions routinely cache
	// the same query, and this loop runs under the scheduler lock every
	// worker needs per chunk claim — one recompile per distinct query keeps
	// the scan stall per batch proportional to the query mix, not the
	// consumer count. Each is engine.Recompile, whose cost is bounded by the
	// rows appended: it extends the bin-code memos the query reads and never
	// builds one (only a StartQuery compile, outside this lock, does).
	plans := make(map[string]*engine.Compiled)
	for c := range s.all {
		oldTarget := int(c.target.Load())
		if oldTarget >= newRows {
			continue // already bound to this version (or a newer view)
		}
		plan, ok := plans[c.sig]
		if !ok {
			var err error
			plan, err = engine.Recompile(db, c.plan.Load())
			if err != nil {
				// A query that compiled against the old view failing against
				// the grown one means the append broke an invariant; surface
				// it and leave the consumer at its old version rather than
				// corrupting it.
				if firstErr == nil {
					firstErr = fmt.Errorf("sharedscan: extend consumer: %w", err)
				}
				continue
			}
			plans[c.sig] = plan
		}
		c.extendLocked(plan, oldTarget, newRows)
	}
	return firstErr
}

// ActiveConsumers returns how many consumers are currently attached to the
// scan (foreground and speculative). Observability for the serving layer's
// lifecycle tests: a disconnected client's queries must leave the scan.
func (s *Scanner) ActiveConsumers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// NewConsumer creates a detached consumer for plan, which must be compiled
// against the current view of the scanner's table; sig is the plan's query
// signature, which the caller has already computed as its own cache key,
// and use is plan's selection reuse (nil for none): the consumer's shards
// scan with it while they fold for plan, and without it once Extend has
// rebound them to a grown view.
// The consumer's coverage target is the plan's row count: if the scan is
// extended before the plan's rows are fully dispatched the consumer rides
// along via Extend, and if the plan was compiled against a view slightly
// ahead of the scanner (a query racing an append) the cursor simply reaches
// the tail once Extend lands.
func (s *Scanner) NewConsumer(plan *engine.Compiled, sig string, use *engine.SelectionUse) *Consumer {
	c := &Consumer{
		s:      s,
		sig:    sig,
		use:    use,
		shards: make([]shard, s.workers),
		done:   make(chan struct{}),
	}
	c.plan.Store(plan)
	c.target.Store(int64(plan.NumRows))
	if plan.NumRows == 0 {
		c.completed = true
		close(c.done)
	} else {
		c.needed = []span{{0, plan.NumRows}}
	}
	// Publish only once fully initialized: from the moment the consumer is
	// in s.all, a concurrent Extend may mutate needed/target/done under
	// s.mu, and any state written here afterwards would race it (and could
	// overwrite an already-granted tail span, wedging the consumer short of
	// its target forever).
	s.mu.Lock()
	s.all[c] = struct{}{}
	s.mu.Unlock()
	return c
}

// spawnLocked starts workers while there are free ids and pending consumers.
func (s *Scanner) spawnLocked() {
	for len(s.idle) > 0 && len(s.active) > 0 {
		id := s.idle[len(s.idle)-1]
		s.idle = s.idle[:len(s.idle)-1]
		go s.worker(id)
	}
}

// worker claims chunks and folds them through the attached consumers until
// no consumer has unassigned rows left.
func (s *Scanner) worker(id int) {
	// A task is one consumer's claim on the current chunk: spans[from:to].
	// Both buffers are reused across chunks, so a claim allocates nothing
	// while s.mu is held.
	type task struct {
		c        *Consumer
		from, to int
	}
	var tasks []task
	var spans []span
	for {
		s.mu.Lock()
		if len(s.active) == 0 {
			s.idle = append(s.idle, id)
			s.mu.Unlock()
			return
		}
		lo := s.pos
		if s.onClaim != nil {
			s.onClaim(lo)
		}
		hi := lo + s.chunk
		if hi > s.numRows {
			hi = s.numRows
		}
		// IDEA's scheduler gives user queries strict priority: while any
		// foreground consumer is attached, purely speculative consumers are
		// not dispatched at all — they stay attached with their coverage
		// intact and resume the moment foreground work drains, so
		// speculation consumes think time, never query time.
		fgActive := false
		for _, c := range s.active {
			if c.fgRefs > 0 {
				fgActive = true
				break
			}
		}
		tasks, spans = tasks[:0], spans[:0]
		for i := 0; i < len(s.active); {
			c := s.active[i]
			if fgActive && c.fgRefs == 0 {
				i++ // suspended speculation target
				continue
			}
			from := len(spans)
			if spans = c.takeLocked(lo, hi, spans); len(spans) > from {
				tasks = append(tasks, task{c, from, len(spans)})
			}
			if len(c.needed) == 0 {
				// Fully assigned: no more chunks for this consumer. Its
				// in-flight folds complete it.
				c.attached = false
				s.active = append(s.active[:i], s.active[i+1:]...)
				continue
			}
			i++
		}
		if hi == s.numRows {
			s.pos = 0
		} else {
			s.pos = hi
		}
		if len(tasks) == 0 {
			// Nobody dispatchable needed this chunk (resumed consumers
			// waiting for the cursor to reach their uncovered window): jump
			// straight to the nearest needed offset instead of sweeping dead
			// rows. Suspended speculation targets are excluded so the cursor
			// keeps serving foreground windows first.
			s.pos = s.nextNeededLocked(s.pos, fgActive)
		}
		s.mu.Unlock()
		for _, t := range tasks {
			t.c.fold(id, spans[t.from:t.to])
		}
		// Yield between dispatches so pollers (snapshot loops, the driver's
		// deadline checks) get the core promptly even when scan workers
		// saturate the machine: one voluntary reschedule per chunk costs
		// ~100ns against thousands of rows folded, and on a single-CPU host
		// it is the difference between first-snapshot latency of one chunk
		// and one preemption quantum (~10ms).
		runtime.Gosched()
	}
}

// nextNeededLocked returns the chunk-grid offset at or below the uncovered
// offset with the smallest circular distance from pos across the
// dispatchable consumers (pos itself if none): all of them normally,
// foreground ones only while foreground work exists. Staying on the grid
// keeps every later claim whole aligned blocks, which the per-block chain
// of engine.GroupState.ScanRangeReusing serves; the claim is clipped to
// what each consumer needs, so the rows below the offset are never folded
// twice.
func (s *Scanner) nextNeededLocked(pos int, fgOnly bool) int {
	best := -1
	for _, c := range s.active {
		if fgOnly && c.fgRefs == 0 {
			continue
		}
		for _, sp := range c.needed {
			d := sp.lo - pos
			if d < 0 {
				d += s.numRows
			}
			if best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return pos
	}
	next := pos + best
	if next >= s.numRows {
		next -= s.numRows
	}
	return next - next%s.chunk
}

// shard is one worker's private accumulator for one consumer. Only worker w
// folds into shards[w], so the lock is uncontended on the hot path; snapshots
// take all shard locks of a consumer to get a consistent merge. plan records
// which view gs's kernels read: when an Extend rebinds the consumer, the
// shard migrates its accumulated state into a fresh state on the new plan
// the next time it folds (bin keys are plan-independent, so Merge is exact).
type shard struct {
	mu   sync.Mutex
	gs   *engine.GroupState
	plan *engine.Compiled
	// blocks is the block tables of plan's shape (nil when it has none),
	// looked up whenever the shard binds to a plan.
	blocks *engine.Blocks
}

// Consumer is one query state riding the shared scan: the progressive
// engine's unit of reuse and speculation. It accumulates rows exactly once
// across attach/detach cycles (and across Extend-grown tails) and completes
// when every row of its current target version has been folded.
type Consumer struct {
	s *Scanner
	// sig is the query's signature, fixed at NewConsumer: Extend's key for
	// sharing one recompile among consumers of the same query, passed in
	// once rather than derived per batch under the scheduler lock.
	sig string
	// use is the selection reuse of the plan the consumer was created with;
	// GroupState.ScanRangeReusing drops it for shards rebound to a later
	// plan.
	use    *engine.SelectionUse
	plan   atomic.Pointer[engine.Compiled]
	target atomic.Int64 // rows of the data version this consumer covers

	// Scheduling state, guarded by s.mu.
	needed   []span // uncovered, unassigned row ranges
	attached bool
	fgRefs   int  // live foreground handles
	spec     bool // standing speculation target

	folded    atomic.Int64 // rows folded into shards
	blockRows atomic.Int64 // of them, rows merged from recorded block tables
	shards    []shard
	// gate is the snapshot turnstile. Workers pass through it (lock+unlock,
	// uncontended in steady state) before taking their shard lock; snapshot
	// merges hold it while collecting every shard. Without it a poller can
	// starve: a worker re-acquires its shard lock back-to-back with ~100%
	// duty cycle, and mutex barging keeps the waiting snapshotter parked for
	// tens of milliseconds. The gate's duty cycle is near zero, so a waiting
	// merge gets in within one chunk fold.
	gate sync.Mutex

	// done is the current completion epoch's channel: closed when every row
	// of the current target is folded, replaced by Extend when a completed
	// consumer gains a tail to absorb. completed tracks the same condition
	// for polling, and final caches the completed epoch's merged state. All
	// are guarded by doneMu.
	done      chan struct{}
	completed bool
	final     *Final
	doneMu    sync.Mutex
	doneCbs   map[int]func(*Final)
	cbSeq     int
}

// Final is a consumer's merged state as of one completed data version. A
// handle whose query completed keeps answering from it, so a batch that
// re-arms the consumer before the result is fetched cannot turn an exact
// final back into an estimate.
type Final struct {
	gs   *engine.GroupState
	rows int64 // the version: its row count, population and watermark
}

// Snapshot renders the exact result at the final's version.
func (f *Final) Snapshot() *query.Result { return f.gs.SnapshotScaled(f.rows, f.rows, f.rows, 0, 0) }

// Partial returns the final in wire form (engine.PartialSnapshotter).
func (f *Final) Partial() *engine.Partial { return f.gs.Partial(f.rows, f.rows, f.rows, true) }

// Selections returns the selection reuse the consumer was created with
// (nil for none).
func (c *Consumer) Selections() *engine.SelectionUse { return c.use }

// Plan returns the compiled plan the consumer currently accumulates for.
func (c *Consumer) Plan() *engine.Compiled { return c.plan.Load() }

// extendLocked grows the consumer's coverage to the new data version:
// rebind the plan, add the uncovered tail, re-arm completion. Caller holds
// s.mu.
func (c *Consumer) extendLocked(plan *engine.Compiled, oldTarget, newRows int) {
	c.plan.Store(plan)
	c.needed = append(c.needed, span{oldTarget, newRows})
	c.target.Store(int64(newRows))
	c.doneMu.Lock()
	if c.completed {
		c.completed = false
		c.done = make(chan struct{})
		c.final = nil
	}
	c.doneMu.Unlock()
	if c.fgRefs > 0 || c.spec {
		c.ensureAttachedLocked()
	}
}

// Discard unregisters the consumer from the scan's extension registry (a
// session dropping its cache): it receives no future data versions. An
// in-flight foreground handle keeps the consumer scanning to its current
// target; otherwise it detaches immediately.
func (c *Consumer) Discard() {
	s := c.s
	s.mu.Lock()
	delete(s.all, c)
	c.spec = false
	if c.fgRefs == 0 {
		c.detachLocked()
	}
	s.mu.Unlock()
}

// takeLocked claims the intersection of [lo, hi) with the consumer's
// uncovered ranges: the claimed spans are appended to out (the calling
// worker's buffer) and needed is clipped in place, order kept. Only a chunk
// strictly inside one uncovered range — a consumer's first claim after it
// attaches mid-table — leaves one range more than it found. Caller holds
// s.mu.
func (c *Consumer) takeLocked(lo, hi int, out []span) []span {
	w := 0 // needed[:w] is the clipped prefix; w never passes the read index
	for i := 0; i < len(c.needed); i++ {
		sp := c.needed[i]
		if sp.hi <= lo || sp.lo >= hi {
			c.needed[w] = sp
			w++
			continue
		}
		out = append(out, span{max(sp.lo, lo), min(sp.hi, hi)})
		if sp.lo < lo {
			c.needed[w] = span{sp.lo, lo}
			w++
		}
		if sp.hi > hi {
			if w > i {
				// Both remainders survive and the left one took this
				// range's own place: open a gap for the right one.
				c.needed = append(c.needed, span{})
				copy(c.needed[w+1:], c.needed[w:])
				i++
			}
			c.needed[w] = span{hi, sp.hi}
			w++
		}
	}
	c.needed = c.needed[:w]
	return out
}

// fold accumulates the claimed spans into worker w's shard and completes the
// consumer when the last row of its current target lands. The shard's state
// migrates to the consumer's current plan first, so spans from an extended
// tail are always folded with kernels bound to the view that contains them.
// Each span is one engine.GroupState.ScanRangeReusing call, over the block
// tables of the plan's shape and the consumer's selection reuse.
func (c *Consumer) fold(w int, parts []span) {
	// Turnstile: let a pending snapshot merge cut in (see gate).
	c.gate.Lock()
	//lint:ignore SA2001 empty critical section is the turnstile handoff
	c.gate.Unlock()
	plan := c.plan.Load()
	sh := &c.shards[w]
	sh.mu.Lock()
	if sh.plan != plan {
		ngs := engine.NewGroupState(plan)
		if sh.gs != nil {
			ngs.Merge(sh.gs)
		}
		sh.gs, sh.plan, sh.blocks = ngs, plan, c.s.blocks.lookup(plan)
	}
	n, served := 0, 0
	for _, sp := range parts {
		served += sh.gs.ScanRangeReusing(sp.lo, sp.hi, sh.blocks, c.use)
		n += sp.hi - sp.lo
	}
	if served > 0 {
		c.blockRows.Add(int64(served))
	}
	total := c.folded.Add(int64(n))
	sh.mu.Unlock()
	if total == c.target.Load() {
		c.finish()
	}
}

// finish closes the current done epoch and runs completion callbacks, once
// per epoch, handing them the epoch's final. Completion is re-validated
// under doneMu: the caller observed folded == target, but an Extend may have
// grown the target in between — completing then would close the re-armed
// epoch with the tail still uncovered and deliver a partial snapshot as
// final. (If the Extend lands after this validation instead, its re-arm
// runs behind the same mutex and reopens the epoch — the old version
// genuinely had completed.)
func (c *Consumer) finish() {
	c.doneMu.Lock()
	if c.completed || c.folded.Load() != c.target.Load() {
		c.doneMu.Unlock()
		return
	}
	c.completed = true
	close(c.done)
	var final *Final
	if len(c.doneCbs) > 0 {
		final = c.finalLocked()
	}
	cbs := make([]func(*Final), 0, len(c.doneCbs))
	for _, fn := range c.doneCbs {
		cbs = append(cbs, fn)
	}
	c.doneCbs = nil
	c.doneMu.Unlock()
	for _, fn := range cbs {
		fn(final)
	}
}

// finalLocked returns the completed epoch's final, merging the shards on
// first use. Caller holds doneMu and has seen completed set, so no Extend
// has re-armed the consumer since it completed — and none can have handed
// a worker a tail row: extendLocked grows needed and re-arms (under doneMu)
// within one hold of the scheduler lock, which every claim takes. The
// shards therefore hold exactly the completed version's rows, and the
// merge's row count names that version even if the target has moved on.
func (c *Consumer) finalLocked() *Final {
	if c.final == nil {
		gs, rows := c.mergeShards()
		c.final = &Final{gs: gs, rows: rows}
	}
	return c.final
}

// completedFinal returns the final of the current epoch, or nil while the
// consumer is still folding toward its target.
func (c *Consumer) completedFinal() *Final {
	c.doneMu.Lock()
	defer c.doneMu.Unlock()
	if !c.completed {
		return nil
	}
	return c.finalLocked()
}

// Done returns the current completion epoch's channel, closed when every
// row of the current target version has been folded. After an Extend the
// channel is a fresh one; callers holding a channel from a previous version
// were truthfully told that version completed.
func (c *Consumer) Done() <-chan struct{} {
	c.doneMu.Lock()
	defer c.doneMu.Unlock()
	return c.done
}

// IsDone reports whether the consumer has folded every row of its current
// target version.
func (c *Consumer) IsDone() bool {
	c.doneMu.Lock()
	defer c.doneMu.Unlock()
	return c.completed
}

// WhenDone registers fn to run at completion (immediately if already done)
// with the final of the version that completed. A callback registered
// before an Extend fires when the extended target completes — the handle it
// finishes then reflects the newest absorbed data version. The returned
// func deregisters fn if it has not yet run — callers whose interest ends
// early (a cancelled handle) must call it, or the closure and everything it
// retains would sit in the callback list of a consumer that may never
// complete.
func (c *Consumer) WhenDone(fn func(*Final)) (deregister func()) {
	c.doneMu.Lock()
	if c.completed {
		final := c.finalLocked()
		c.doneMu.Unlock()
		fn(final)
		return func() {}
	}
	if c.doneCbs == nil {
		c.doneCbs = make(map[int]func(*Final))
	}
	id := c.cbSeq
	c.cbSeq++
	c.doneCbs[id] = fn
	c.doneMu.Unlock()
	return func() {
		c.doneMu.Lock()
		delete(c.doneCbs, id)
		c.doneMu.Unlock()
	}
}

// RowsSeen returns the number of rows folded so far.
func (c *Consumer) RowsSeen() int64 { return c.folded.Load() }

// BlockRowsServed returns how many of the rows folded so far were merged
// from block tables already recorded, instead of folded row by row.
func (c *Consumer) BlockRowsServed() int64 { return c.blockRows.Load() }

// Progress returns the folded fraction of the current target in [0, 1].
func (c *Consumer) Progress() float64 {
	target := c.target.Load()
	if target == 0 {
		return 1
	}
	return float64(c.folded.Load()) / float64(target)
}

// Acquire attaches the consumer on behalf of a foreground handle. Each
// Acquire must be balanced by Release.
func (c *Consumer) Acquire() {
	s := c.s
	s.mu.Lock()
	c.fgRefs++
	c.ensureAttachedLocked()
	s.mu.Unlock()
}

// Release drops one foreground reference. With no foreground handles left
// the consumer detaches — unless it is a standing speculation target, which
// keeps riding the scan through think time.
func (c *Consumer) Release() {
	s := c.s
	s.mu.Lock()
	if c.fgRefs > 0 {
		c.fgRefs--
	}
	if c.fgRefs == 0 && !c.spec {
		c.detachLocked()
	}
	s.mu.Unlock()
}

// Speculate attaches the consumer as a standing background target: it stays
// on the scan until complete, yielding dispatch order to foreground states.
func (c *Consumer) Speculate() {
	s := c.s
	s.mu.Lock()
	c.spec = true
	c.ensureAttachedLocked()
	s.mu.Unlock()
}

// Unspeculate withdraws the standing speculation attachment (a new link
// replaced this round's targets). The consumer stays attached while
// foreground handles still reference it, and its coverage is retained for
// reuse either way.
func (c *Consumer) Unspeculate() {
	s := c.s
	s.mu.Lock()
	c.spec = false
	if c.fgRefs == 0 {
		c.detachLocked()
	}
	s.mu.Unlock()
}

// ensureAttachedLocked puts the consumer on the active list (foreground
// states ahead of speculative ones) and wakes workers. Caller holds s.mu.
func (c *Consumer) ensureAttachedLocked() {
	if len(c.needed) == 0 {
		return // fully assigned; in-flight folds (or done) finish it
	}
	s := c.s
	if c.attached {
		return
	}
	c.attached = true
	if c.fgRefs > 0 {
		i := 0
		for i < len(s.active) && s.active[i].fgRefs > 0 {
			i++
		}
		s.active = append(s.active, nil)
		copy(s.active[i+1:], s.active[i:])
		s.active[i] = c
	} else {
		s.active = append(s.active, c)
	}
	s.spawnLocked()
}

// detachLocked removes the consumer from the active list. Caller holds s.mu.
func (c *Consumer) detachLocked() {
	if !c.attached {
		return
	}
	c.attached = false
	for i, o := range c.s.active {
		if o == c {
			c.s.active = append(c.s.active[:i], c.s.active[i+1:]...)
			return
		}
	}
}

// mergeShards combines all worker shards into a fresh state, together with
// the rows-seen count the merge reflects. Holding every shard lock means no
// fold is in flight, so the count and the contents are consistent.
func (c *Consumer) mergeShards() (*engine.GroupState, int64) {
	c.gate.Lock()
	defer c.gate.Unlock()
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	seen := c.folded.Load()
	merged := engine.NewGroupState(c.plan.Load())
	for i := range c.shards {
		if gs := c.shards[i].gs; gs != nil {
			merged.Merge(gs)
		}
	}
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
	return merged, seen
}

// Snapshot renders the current estimate: the exact final once every row of
// the current target version is folded, otherwise scaled with CLT margins
// at critical value z over the window seen so far. The result's watermark
// is the version's row count.
func (c *Consumer) Snapshot(z float64) *query.Result {
	if f := c.completedFinal(); f != nil {
		return f.Snapshot()
	}
	merged, seen := c.mergeShards()
	// The target version's row count is both the scaling population and the
	// absorbed-rows watermark: the consumer folds toward exactly the rows of
	// that data version.
	target := c.target.Load()
	return merged.SnapshotScaled(seen, target, target, 0, z)
}

// PartialSnapshot extracts the consumer's current accumulator state in wire
// form (the engine.PartialSnapshotter capability): the merged worker shards,
// unrendered, for a scatter-gather coordinator to fold with other shards'
// fragments before estimating once. The fragment's population and watermark
// are the consumer's target version, exactly as in Snapshot.
func (c *Consumer) PartialSnapshot() *engine.Partial {
	if f := c.completedFinal(); f != nil {
		return f.Partial()
	}
	merged, seen := c.mergeShards()
	target := c.target.Load()
	return merged.Partial(seen, target, target, seen == target)
}
