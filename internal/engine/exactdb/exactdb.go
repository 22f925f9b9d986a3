// Package exactdb implements the benchmark's analytical-column-store
// analogue (the paper's MonetDB): a blocking execution model where a query
// scans all rows in parallel and a result exists only once the exact answer
// is complete. Upon initiating a query its run time is unknown; if the
// driver's time requirement fires first, the query is cancelled and counts
// as a TR violation with no partial result.
package exactdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// chunkRows is the scan granularity: cancellation latency and work-stealing
// slice size. 64k rows (16 vectorized batches of engine.BatchRows) keeps
// cancellation in the tens of microseconds while amortizing the atomic
// fetch.
const chunkRows = 16 * engine.BatchRows

// Engine is a blocking, parallel, exact columnar engine. Its lineage
// publishes the private fact copy with the options it was prepared with.
type Engine struct {
	engine.Stateless
	lin engine.Lineage[engine.Options]
}

// New returns an unprepared engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "exactdb" }

// Prepare ingests the database. Like a column store's CSV load, it
// materializes a private copy of every column; the copy dominates the data
// preparation time the driver reports.
func (e *Engine) Prepare(db *dataset.Database, opts engine.Options) error {
	return e.PrepareReordered(copyDatabase(db), nil, opts)
}

// PrepareReordered implements engine.ReorderedPreparer. A blocking exact
// engine scans whatever order the storage is in, so a durable checkpoint
// (arrival order, perm ignored) is adopted without the defensive copy
// Prepare makes — the loader's freshly decoded storage is already private.
func (e *Engine) PrepareReordered(db *dataset.Database, _ []uint32, opts engine.Options) error {
	e.lin.Reset(&engine.View[engine.Options]{DB: db, Watermark: int64(db.Fact.NumRows()), X: opts.Normalize()})
	return nil
}

// SnapshotView implements engine.ViewSnapshotter: the current view in
// arrival order; there is no sampling permutation (nil).
func (e *Engine) SnapshotView() (*dataset.Database, []uint32) { return e.lin.SnapshotView() }

// Append implements engine.Appender. A column store absorbs appends as
// storage growth: the batch lands on the fact columns and the next query's
// full exact scan recomputes over the grown table (the blocking execution
// model has no standing per-query state to maintain incrementally).
// In-flight scans keep reading the view they compiled against — their
// results carry the pre-append watermark.
func (e *Engine) Append(rows *dataset.Table) error {
	if _, err := e.lin.Append(rows, nil); err != nil {
		return fmt.Errorf("exactdb: append: %w", err)
	}
	return nil
}

// Watermark implements engine.Appender.
func (e *Engine) Watermark() int64 { return e.lin.Watermark() }

// StartQuery implements engine.Session: it launches a parallel scan and
// publishes the exact result when every worker finishes.
func (e *Engine) StartQuery(q *query.Query) (engine.Handle, error) {
	v := e.lin.Load()
	if v == nil {
		return nil, engine.ErrNotPrepared
	}
	plan, err := engine.Compile(v.DB, q)
	if err != nil {
		return nil, err
	}

	h := engine.NewAsyncHandle()
	go e.run(plan, h, v.X.Parallelism)
	return h, nil
}

func (e *Engine) run(plan *engine.Compiled, h *engine.AsyncHandle, workers int) {
	defer h.Finish()
	n := plan.NumRows
	numChunks := (n + chunkRows - 1) / chunkRows
	if workers > numChunks {
		workers = numChunks
	}
	if workers < 1 {
		workers = 1
	}

	var next atomic.Int64
	states := make([]*engine.GroupState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		states[w] = engine.NewGroupState(plan)
		wg.Add(1)
		go func(gs *engine.GroupState) {
			defer wg.Done()
			for {
				if h.Cancelled() {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				lo := c * chunkRows
				hi := lo + chunkRows
				if hi > n {
					hi = n
				}
				gs.ScanRange(lo, hi)
			}
		}(states[w])
	}
	wg.Wait()
	if h.Cancelled() {
		return // blocking model: a cancelled query yields nothing
	}
	merged := states[0]
	for _, s := range states[1:] {
		merged.Merge(s)
	}
	h.Publish(merged.SnapshotExact())
}

// OpenSession implements engine.Engine. Blocking exact scans carry no
// per-visualization state, so the engine is its own session.
func (e *Engine) OpenSession() engine.Session { return e }

var (
	_ engine.Engine   = (*Engine)(nil)
	_ engine.Appender = (*Engine)(nil)
)

// copyDatabase copies every column's storage (dictionaries are shared:
// they are append-only and the engine never mutates them).
func copyDatabase(db *dataset.Database) *dataset.Database {
	copyTable := func(t *dataset.Table) *dataset.Table { return dataset.NewTableAppender(t, false).View() }
	out := &dataset.Database{Fact: copyTable(db.Fact)}
	for _, d := range db.Dimensions {
		out.Dimensions = append(out.Dimensions, &dataset.Dimension{Table: copyTable(d.Table), FKColumn: d.FKColumn})
	}
	return out
}
