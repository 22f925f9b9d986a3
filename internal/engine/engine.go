// Package engine defines the system-adapter interface of the benchmark
// (paper Sec. 4.5) and the shared execution kernels — compiled plans,
// vectorized filter/bin/aggregate kernels and group-by states — that the
// concrete engines under internal/engine/... build their execution models
// from.
//
// # Vectorized execution
//
// Compile lowers a query to a Compiled plan holding two equivalent
// operator forms: per-row closures (the scalar reference path, exercised
// by GroupState.ScanRangeScalar/ScanRowsScalar) and type-specialized batch
// kernels (vectorize.go). GroupState.ScanRange and ScanRows run the batch
// form: each batch of up to BatchRows rows flows through branch-free
// predicate kernels that build a selection vector, bin kernels that fill an
// []int32 slot buffer, and gather kernels that produce aggregate inputs as
// []float64 — tight loops over raw column storage with no per-row closure
// calls, over buffers that belong to the scanning goroutine, not the state.
// A whole aligned block takes the first of a recorded block table, a
// recorded selection and the first predicate's block order that serves it
// (GroupState.ScanRangeReusing; README.md, "Per-block scan"): the same rows
// reach the fold in the same order.
//
// # One accumulator table
//
// A GroupState is a flat table of struct-of-arrays columns addressed by
// slot: a count column, plus a shifted-moments (Moments), min or max column
// per aggregate that needs one — the fold divides nowhere; readers derive
// mean, M2 and sum per bin. When every bin dimension has a known, small key
// domain — the dictionary cardinality of a nominal column, or quantitative
// bin bounds derived from the column's memoized min/max — a key's slot is
// arithmetic; otherwise slots are handed out in first-touch order behind a
// key index. Merge, SnapshotExact, SnapshotScaled, Partial and PartialFold
// all walk the same columns, whichever way they were filled. What "bitwise
// identical" means for them is stated once, in README.md's "One
// accumulator table".
// See README.md in this directory for the full architecture.
package engine

import (
	"errors"
	"runtime"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// Handle represents one in-flight query. The driver polls it once at the
// time-requirement deadline; progressive engines may be polled at any time.
type Handle interface {
	// Snapshot returns the best result currently available, or nil when the
	// engine has nothing to deliver yet (a blocking engine mid-scan). A
	// returned result is never mutated afterwards — not as the query runs
	// on, not on Cancel, not by later snapshots — because the driver keeps
	// it and scores it only after its timed window closes. Engines that
	// reuse state between snapshots must hand out copies
	// (enginetest.Conformance checks this).
	Snapshot() *query.Result
	// Done is closed when execution finishes (successfully or cancelled).
	Done() <-chan struct{}
	// Cancel stops execution as soon as possible. Idempotent; the paper's
	// driver cancels every query whose run time exceeds the TR.
	Cancel()
}

// Options carries the benchmark settings every engine needs at prepare time
// (paper Sec. 4.6).
type Options struct {
	// Confidence is the confidence level for margins of error (default 0.95).
	Confidence float64
	// Seed drives all engine-internal randomness (permutations, samples).
	Seed int64
	// Parallelism caps worker goroutines for parallel engines; 0 means
	// runtime.NumCPU().
	Parallelism int
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Engine is the system-adapter interface (paper Listing 1). One Engine
// instance serves one benchmark run; Prepare is called once per dataset and
// its duration is the reported "data preparation time".
//
// Prepared engines are multi-user: OpenSession hands out independent
// Sessions, one per concurrent simulated analyst, which share the prepared
// data (and any shared-scan scheduling) but keep visualization namespaces,
// link hints and reuse caches apart. Every query goes through a Session; the
// adapter verbs (start query, link, delete viz, workflow start/end) live
// there and nowhere else.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Prepare ingests the database. Engines copy/derive whatever internal
	// representation they need; the driver times this call.
	Prepare(db *dataset.Database, opts Options) error
	// OpenSession returns a new session on the prepared engine. Sessions
	// opened before Prepare fail their first StartQuery with ErrNotPrepared.
	OpenSession() Session
}

// Watermarker is the optional data-version observability capability:
// anything that can report the fact-row count it has absorbed — the data
// version new queries answer against. Every Appender is a Watermarker, but
// not every Watermarker can absorb rows locally: a *server.Remote has a
// watermark (mirrored from the shard's ingest broadcasts) while its ingest
// travels as wire batches, and the shard coordinator observes backends
// through exactly this interface.
type Watermarker interface {
	// Watermark reports the fact-row count the engine has absorbed: the
	// data version new queries answer against.
	Watermark() int64
}

// Appender is the optional live-ingestion capability: engines that can
// absorb append-only row batches after Prepare implement it. rows is a
// materialized batch — a small table with the fact schema whose nominal
// columns share the prepared fact table's dictionaries and whose foreign
// keys (on a star schema) resolve in the dimension tables — appended
// atomically. ingest.Materialize produces and fully validates exactly this
// shape; engines trust it rather than re-scanning the batch per append
// (the dictionary-sharing part is still cheaply re-checked by the storage
// appender).
//
// The four engines that store data (exactdb, sampledb, onlinedb,
// progressive) keep it in a Lineage: Append builds the next View — with
// what the engine does per batch (sampledb re-stratifies the batch into its
// sample, onlinedb pays its tuple cost and grows its heap too) — and
// publishes it with one atomic store, and progressive then extends its
// shared scan so every standing query state folds the new rows exactly
// once, mid-sweep. Queries never wait for an Append: each binds to the view
// it loads, and in-flight ones keep answering from the data version they
// compiled against — which is why snapshots carry a Watermark, and why a
// result's watermark never exceeds Watermark(). Wrappers hold no lineage:
// idelayer forwards to its backend, shard.Coordinator routes rows to the
// owning partitions, and shard.Faulty forwards to the engine it injects
// faults into.
//
// Append must be safe to call concurrently with queries and with other
// sessions; calls for one engine are serialized by the caller (the ingest
// harness applies batches one at a time).
type Appender interface {
	Watermarker
	Append(rows *dataset.Table) error
}

// ScanObserver is the optional observability capability: engines built on a
// shared scan report how many consumers are currently attached. The serving
// layer surfaces it on /healthz and the chaos tests assert it returns to
// zero after every injected fault (no leaked consumers).
type ScanObserver interface {
	ActiveScanConsumers() int
}

// ViewSnapshotter is the optional durability capability: engines that can
// expose their current prepared storage implement it. SnapshotView returns
// the engine's current published view — the prepared fact table plus any
// batches absorbed since, in the engine's own storage order — and the
// sampling permutation its first len(perm) fact rows were materialized in
// (nil when the engine stores rows in arrival order). A published view is
// immutable, so the returned database is safe to serialize concurrently
// with queries and further appends; the durable checkpointer calls this from
// a background goroutine without stopping ingestion. Successive views
// should extend one another — the same dimension tables and permutation,
// every earlier row unchanged — because the checkpointer then writes only
// the rows since its last checkpoint; a view that does not is written in
// full. progressive and exactdb implement it as Lineage.SnapshotView, whose
// views extend by construction (shard.Faulty forwards it); sampledb, whose
// storage is a sample, and onlinedb do not implement it.
type ViewSnapshotter interface {
	SnapshotView() (db *dataset.Database, perm []uint32)
}

// ReorderedPreparer is the optional warm-restart capability: engines whose
// Prepare materializes storage in a non-arrival order (the progressive
// engine's sampling permutation) implement it so a durable checkpoint
// written from their own SnapshotView can be adopted directly.
// PrepareReordered behaves like Prepare except that db's fact table is
// already in the engine's prepared order — the permutation draw and the
// O(n·cols) reorder pass are skipped, which is what makes a warm restart
// cheaper than a cold one. perm is the sampling permutation the storage was
// materialized in, exactly as returned by SnapshotView. The engine takes
// ownership of db's storage.
type ReorderedPreparer interface {
	PrepareReordered(db *dataset.Database, perm []uint32, opts Options) error
}

// PartialSnapshotter is the optional scatter-gather capability on a query
// handle: it exposes the query's raw accumulator state (a Partial) instead
// of a rendered estimate, so a coordinator can merge fragments from many
// shards with the merge a local parallel scan runs and render once. Handles that implement it may still return nil (the engine behind
// them has no partial support); callers must treat nil as "capability
// absent", not "empty result".
type PartialSnapshotter interface {
	PartialSnapshot() *Partial
}

// ErrNotPrepared is returned by Session.StartQuery before Prepare.
var ErrNotPrepared = errors.New("engine: not prepared")

// ErrUnknownTable is returned when a query references a table the prepared
// database does not contain.
var ErrUnknownTable = errors.New("engine: unknown table")
