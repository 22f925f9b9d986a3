// Package sharedscan implements a cooperative shared-scan scheduler for the
// progressive engines: per prepared table, a bounded worker pool folds
// whole blocks of sequential (permutation-ordered) storage — the
// dataset.BlockRows grid every block memo sits on — into the attached
// consumer states, serving the least-served consumer first.
//
// # Why least-attained service
//
// A free worker must choose which consumer to serve. Folding every block
// through every attached consumer (one circular cursor) reads memory once
// for N queries, but advances each query only as fast as the most expensive
// fold beside it: a query that merges block tables waits on the filtered
// fold attached next to it.
//
// Instead each worker, under the scheduler lock, picks the dispatchable
// consumer with the fewest nanoseconds folded so far (least attained
// service), claims that consumer's next needed whole blocks, folds them for
// it alone and adds the measured fold time to its counter. A cheap query
// therefore completes in about its own fold time, and an expensive one
// takes the time the cheap ones leave. Query costs here span more than an
// order of magnitude, the case where least-attained-service scheduling cuts
// response times most (Rai, Urvoy-Keller and Biersack, SIGMETRICS 2003). A
// claim holds as many whole blocks as fit one fixed fold-time budget at the
// consumer's measured cost per row (see claimBudget), so a consumer that
// merges block tables is not held to one block per dispatch. The price is
// the shared sweep: concurrent consumers read the same block at different
// times, so eight cold queries over a table past the last-level cache take
// longer than with one cursor (BenchmarkProgressiveConcurrent8,
// internal/engine/README.md "Benchmarks").
//
// An expensive consumer is served whenever no less-served consumer is
// dispatchable: cheap consumers that attach one after another delay it by
// their own fold time, not more. Only a stream of cheap work that never
// leaves the workers idle would hold it back.
//
// # Coverage and uniformity
//
// Each consumer tracks its uncovered row ranges, kept in ascending order,
// and a claim takes the blocks from its lowest uncovered row upward, clipped
// against those ranges under the scheduler lock: every row is folded
// exactly once. A consumer's window is therefore a prefix of the
// permutation plus the claims in flight, a set of positions chosen without
// looking at the data. Because the storage holds rows in a fixed random
// permutation, that window is a uniform random sample of the table, so
// partial snapshots keep the CLT confidence math of a prefix scan
// (engine.GroupState.SnapshotScaled). Coverage also gives pause/resume for
// free: a consumer detached mid-scan (a cancelled query whose partial state
// stays in the reuse cache) continues from its lowest uncovered row when it
// reattaches, never folding a row twice.
//
// # Parallelism
//
// Up to the configured number of workers claim concurrently, several of
// them often on successive blocks of the same consumer; each worker folds
// into its own per-consumer engine.GroupState shard, so the hot loop takes
// no shared locks beyond the claim. Snapshots briefly lock all shards of one
// consumer and combine them with engine.GroupState.Merge. A worker with
// nothing dispatchable exits; attaching, detaching and Extend start workers
// again.
//
// Foreground consumers (user queries) have strict priority: while any is
// attached, purely speculative consumers are suspended — not dispatched at
// all, coverage intact — and resume the moment foreground work drains. So
// speculation consumes think time, never query time.
//
// # Live ingestion: Extend and delta consumers
//
// Extend grows the scanned table mid-flight: appended rows land as a tail
// segment of the sequential storage, and every registered consumer —
// attached or paused, mid-scan or already complete — gains the tail as one
// more uncovered interval. The existing uncovered-interval clipping then
// delivers the new rows to each consumer exactly once, after whatever of
// the old region it had left; a
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
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// span is a half-open row range [lo, hi).
type span struct{ lo, hi int }

// Scanner is the shared-scan scheduler for one prepared table. Its
// storage-facing contract is engine.GroupState.ScanRangeReusing, so it
// assumes the table rows are already materialized in scan (permutation)
// order.
type Scanner struct {
	numRows int
	workers int

	mu     sync.Mutex
	active []*Consumer // attached, with unassigned rows
	idle   []int       // free worker ids; workers exit when nothing is dispatchable
	all    map[*Consumer]struct{}
	// charge is the service a fold started at start attains, from its rows
	// and those of them merged from block tables: the wall time it took, or
	// in in-package tests a per-row price, so claims follow from the fixture.
	charge func(start time.Time, rows, merged int) time.Duration

	blocks blockRegistry
}

// claimBudget is the fold time one claim aims at, and maxClaimBlocks caps
// its blocks. A claim's fixed cost — the scheduler lock, picking the
// consumer, takeLocked, the snapshot gate, the fold's charge (Scanner.charge:
// a clock read on each side of the fold), the ScanRangeReusing call and the
// Gosched after it — is about 0.4 µs
// (BenchmarkClaimOverhead: 410–465 ns/claim on a 2-vCPU Xeon, go1.24,
// one-block claims that merge recorded tables, less the same merges run
// directly). A
// 50 µs budget keeps that under 1% of a claim, while a query that arrives
// waits on each busy worker for about one budget at most, 1/80 of the
// benchmark's 4 ms time requirement. The cap bounds the rows one shard
// takes at once.
const (
	claimBudget    = 50 * time.Microsecond
	maxClaimBlocks = 64
)

// blockRegistry is the scanner's block tables (README.md, "Per-block scan",
// "Block tables"): one engine.Blocks per accumulator shape that a
// consumer's plan has, recorded by the workers as they fold and dropped
// with the scanner. It is derived from the table alone and holds no
// query's answer. It is also the tables' ledger: it counts the bytes of
// every table kept under one of its shapes, where the table is published,
// and caps them at the size of the columns the scanner reads
// (engine.Compiled.TableBytes of the largest view looked up), so the tables
// never outgrow the data they summarize. A publish that would pass the cap
// evicts the least recently looked-up shapes until it fits, its own shape
// last; an evicted shape is dropped (engine.Blocks.Drop) and its plans fold
// their rows. Its lock is its own, taken once per shard and plan and once
// per published table, never under the scheduler lock.
type blockRegistry struct {
	mu        sync.Mutex
	shapes    map[string]*blockShape
	bytes     int64  // of the tables kept under shapes
	limit     int64  // the cap on bytes
	evictions int64  // shapes evicted to stay under limit
	clock     uint64 // lookups so far
	// limitOf, when set, replaces engine.Compiled.TableBytes as the cap a
	// plan's view allows: tests set a fixed one.
	limitOf func(*engine.Compiled) int64
}

// blockShape is one registry entry: the engine.BlockLedger of its Blocks.
type blockShape struct {
	r     *blockRegistry
	key   string
	b     *engine.Blocks
	bytes int64  // of the tables kept in b
	used  uint64 // the registry's clock at the last lookup
}

// Admit implements engine.BlockLedger.
func (e *blockShape) Admit(n int64) bool { return e.r.admit(e, n) }

// lookup returns the block tables of plan's shape, nil when plan's scans
// cannot merge any (engine.Compiled.BlockShape). The shape key leaves the
// dense geometry out, so a shape keeps one entry however often appends widen
// its domain: a plan of a larger view in a new geometry replaces the entry
// with empty tables in its own, and a plan of an older view, whose geometry
// the entry no longer has, gets nil and folds its rows. A replaced entry is
// dropped and leaves the ledger.
func (r *blockRegistry) lookup(plan *engine.Compiled) *engine.Blocks {
	var buf [256]byte
	key, ok := plan.AppendBlockShape(buf[:0])
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := plan.TableBytes()
	if r.limitOf != nil {
		limit = r.limitOf(plan)
	}
	r.limit = max(r.limit, limit)
	r.clock++
	e := r.shapes[string(key)]
	switch {
	case e != nil && e.b.Serves(plan):
		e.used = r.clock
		return e.b
	case e != nil && !e.b.Supersedes(plan):
		return nil
	case e != nil:
		r.removeLocked(e)
	}
	if r.shapes == nil {
		r.shapes = make(map[string]*blockShape)
	}
	e = &blockShape{r: r, key: string(key), used: r.clock}
	e.b = engine.NewBlocks(plan, e)
	r.shapes[e.key] = e
	return e.b
}

// admit counts a table of n bytes just published under e, evicting the
// least recently looked-up shapes while the count would pass the cap. It
// refuses the table when e itself is evicted, or was before.
func (r *blockRegistry) admit(e *blockShape, n int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shapes[e.key] != e {
		return false
	}
	for r.bytes+n > r.limit {
		var lru *blockShape
		for _, v := range r.shapes {
			if lru == nil || v.used < lru.used {
				lru = v
			}
		}
		r.removeLocked(lru)
		r.evictions++
		if lru == e {
			return false
		}
	}
	r.bytes += n
	e.bytes += n
	return true
}

// removeLocked takes e out of the registry and its bytes out of the ledger,
// and drops its tables.
func (r *blockRegistry) removeLocked(e *blockShape) {
	delete(r.shapes, e.key)
	r.bytes -= e.bytes
	e.bytes = 0
	e.b.Drop()
}

// stats reads the ledger.
func (r *blockRegistry) stats() engine.BlockTables {
	r.mu.Lock()
	defer r.mu.Unlock()
	return engine.BlockTables{Bytes: r.bytes, Shapes: len(r.shapes), Cap: r.limit, Evictions: r.evictions}
}

// BlockTables returns the scanner's block-table ledger.
func (s *Scanner) BlockTables() engine.BlockTables { return s.blocks.stats() }

// New returns a scheduler over numRows rows of sequential storage, running
// at most workers scan goroutines (minimum 1).
func New(numRows, workers int) *Scanner {
	if workers < 1 {
		workers = 1
	}
	s := &Scanner{numRows: numRows, workers: workers, all: make(map[*Consumer]struct{})}
	s.charge = func(start time.Time, _, _ int) time.Duration { return time.Since(start) }
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
	// worker needs per claim — one recompile per distinct query keeps
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
	// Consumers compiled on a view ahead of the scanner (a query racing an
	// append) become dispatchable now.
	s.spawnLocked()
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
// ahead of the scanner (a query racing an append) its rows past the
// scanner's are not dispatched until Extend lands.
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

// spawnLocked starts workers while there are free ids and attached
// consumers.
func (s *Scanner) spawnLocked() {
	for len(s.idle) > 0 && len(s.active) > 0 {
		id := s.idle[len(s.idle)-1]
		s.idle = s.idle[:len(s.idle)-1]
		go s.worker(id)
	}
}

// worker claims blocks and folds them until no consumer is dispatchable.
func (s *Scanner) worker(id int) {
	// The span buffer is reused across claims, so a claim allocates nothing
	// while s.mu is held.
	var spans []span
	for {
		s.mu.Lock()
		var c *Consumer
		c, _, _, spans = s.claimLocked(spans[:0])
		if c == nil {
			// Handed back in the same hold as the empty pick: a consumer
			// that attaches after it finds this id free and starts a worker.
			s.idle = append(s.idle, id)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		c.fold(id, spans)
		// Yield between claims so pollers (snapshot loops, the driver's
		// deadline checks) get the core promptly even when scan workers
		// saturate the machine: on a single-CPU host it is the difference
		// between first-snapshot latency of one claim and one preemption
		// quantum (~10ms).
		runtime.Gosched()
	}
}

// claimLocked is the scheduler's one decision: it claims blocks [lo, hi)
// for the least-served dispatchable consumer c, nil if none, and appends the
// rows c still needed of them to spans for the caller to fold. Caller holds
// s.mu.
func (s *Scanner) claimLocked(spans []span) (c *Consumer, lo, hi int, _ []span) {
	i := s.nextLocked()
	if i < 0 {
		return nil, 0, 0, spans
	}
	c = s.active[i]
	// needed is ascending, so needed[0] holds the consumer's lowest
	// uncovered row; the claim starts on the block grid at or below it.
	lo = c.needed[0].lo / dataset.BlockRows * dataset.BlockRows
	hi = min(lo+claimBlocks(c)*dataset.BlockRows, s.numRows)
	spans = c.takeLocked(lo, hi, spans)
	if len(c.needed) == 0 {
		// Fully assigned: no more claims for this consumer. Its in-flight
		// folds complete it.
		c.attached = false
		s.active = append(s.active[:i], s.active[i+1:]...)
	}
	return c, lo, hi, spans
}

// nextLocked returns the index in s.active of the dispatchable consumer
// with the least attained service, or -1 when none is dispatchable. While
// any foreground consumer is attached, speculative ones are not dispatched
// at all — they keep their coverage and resume the moment foreground work
// drains, so speculation consumes think time, never query time (IDEA's
// scheduler gives user queries strict priority). A consumer whose lowest
// uncovered row is past the scanner's rows (compiled on a view ahead of it)
// waits for Extend. Ties go to the earlier attached.
func (s *Scanner) nextLocked() int {
	fg := false
	for _, c := range s.active {
		if c.fgRefs > 0 {
			fg = true
			break
		}
	}
	best, least := -1, int64(0)
	for i, c := range s.active {
		if (fg && c.fgRefs == 0) || c.needed[0].lo >= s.numRows {
			continue
		}
		if ns := c.attained.Load(); best < 0 || ns < least {
			best, least = i, ns
		}
	}
	return best
}

// claimBlocks returns how many blocks c's next claim holds: as many as fold
// in claimBudget at c's measured cost per row, one before c has a
// measurement, at most maxClaimBlocks.
func claimBlocks(c *Consumer) int {
	ns, rows := c.attained.Load(), c.folded.Load()
	if ns <= 0 || rows <= 0 {
		return 1
	}
	n := int64(claimBudget) * rows / (ns * dataset.BlockRows)
	return int(min(max(n, 1), maxClaimBlocks))
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
	needed   []span // uncovered, unassigned row ranges, ascending
	attached bool
	fgRefs   int  // live foreground handles
	spec     bool // standing speculation target

	folded    atomic.Int64 // rows folded into shards
	attained  atomic.Int64 // nanoseconds spent folding them: the service attained
	blockRows atomic.Int64 // of them, rows merged from recorded block tables
	shards    []shard
	// gate is the snapshot turnstile. Workers pass through it (lock+unlock,
	// uncontended in steady state) before taking their shard lock; snapshot
	// merges hold it while collecting every shard. Without it a poller can
	// starve: a worker re-acquires its shard lock back-to-back with ~100%
	// duty cycle, and mutex barging keeps the waiting snapshotter parked for
	// tens of milliseconds. The gate's duty cycle is near zero, so a waiting
	// merge gets in within one claim's fold.
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
// rebind the plan, add the uncovered tail, re-arm completion. The tail lies
// above every range needed holds, so needed stays ascending. Caller holds
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
// worker's buffer) and needed is clipped in place, order kept. Only a
// window strictly inside one uncovered range leaves one range more than it
// found; a worker's claims never do, as they start at or below the
// consumer's lowest uncovered row. Caller holds s.mu.
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
// tables of the plan's shape and the consumer's selection reuse. The fold
// under the shard lock is priced by Scanner.charge and added to the
// consumer's attained service.
func (c *Consumer) fold(w int, parts []span) {
	// Turnstile: let a pending snapshot merge cut in (see gate).
	c.gate.Lock()
	//lint:ignore SA2001 empty critical section is the turnstile handoff
	c.gate.Unlock()
	plan := c.plan.Load()
	sh := &c.shards[w]
	sh.mu.Lock()
	start := time.Now()
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
	c.attained.Add(int64(c.s.charge(start, n, served)))
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

// ensureAttachedLocked puts the consumer on the active list and wakes
// workers. Caller holds s.mu.
func (c *Consumer) ensureAttachedLocked() {
	if len(c.needed) == 0 || c.attached {
		return // fully assigned (in-flight folds or done finish it), or attached
	}
	c.attached = true
	c.s.active = append(c.s.active, c)
	c.s.spawnLocked()
}

// detachLocked removes the consumer from the active list, and wakes workers
// for what it leaves: the last foreground consumer leaving makes speculation
// dispatchable. Caller holds s.mu.
func (c *Consumer) detachLocked() {
	if !c.attached {
		return
	}
	c.attached = false
	s := c.s
	for i, o := range s.active {
		if o == c {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.spawnLocked()
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
