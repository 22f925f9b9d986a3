package engine

import (
	"sync"
	"sync/atomic"

	"idebench/internal/dataset"
)

// View is one data version of a prepared engine: the storage new queries
// compile against, the sampling permutation that storage's prefix is in,
// the watermark answers at this version carry, and the engine's own
// per-version state. A published view is never modified, so a reader that
// loaded one uses it without a lock.
type View[X any] struct {
	DB *dataset.Database
	// Perm is the sampling permutation DB's first len(Perm) fact rows are
	// stored in, as SnapshotView reports it; nil for arrival order, and for
	// an engine that does not expose its storage.
	Perm []uint32
	// Watermark is the fact-row count this version represents: DB's fact
	// row count, unless DB holds a sample of the absorbed rows.
	Watermark int64
	X         X
}

// Lineage is an engine's single-writer data lineage: one writer publishes
// versions, and each reader answers at the version it loaded. It owns the
// fact table's dataset.TableAppender and publishes every version as an
// immutable View through one atomic pointer. Readers (Load, Watermark,
// SnapshotView) do that one load; writers (Reset, Advance, Append) build
// the next view under a mutex no reader takes, then publish it. The zero
// value is an unprepared lineage.
type Lineage[X any] struct {
	mu  sync.Mutex // serializes writers
	app *dataset.TableAppender
	cur atomic.Pointer[View[X]]
}

// Load returns the current view, or nil before the first Reset.
func (l *Lineage[X]) Load() *View[X] { return l.cur.Load() }

// Watermark returns the current view's watermark, 0 before the first Reset
// (the Watermarker capability).
func (l *Lineage[X]) Watermark() int64 {
	if v := l.cur.Load(); v != nil {
		return v.Watermark
	}
	return 0
}

// SnapshotView returns the current view's storage and permutation (the
// ViewSnapshotter capability). Successive views extend one another: they
// all come from the one appender.
func (l *Lineage[X]) SnapshotView() (*dataset.Database, []uint32) {
	if v := l.cur.Load(); v != nil {
		return v.DB, v.Perm
	}
	return nil, nil
}

// Reset starts a new lineage at v (Prepare). The lineage takes ownership of
// v.DB's fact storage: later appends grow it in place.
func (l *Lineage[X]) Reset(v *View[X]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.app = dataset.NewTableAppender(v.DB.Fact, true)
	l.cur.Store(v)
}

// Advance is one writer step: next returns the view that follows cur,
// growing the fact table (if at all) through the lineage's appender, and
// Advance publishes it. A failed step publishes nothing. Before the first
// Reset, Advance returns ErrNotPrepared.
func (l *Lineage[X]) Advance(next func(cur *View[X], app *dataset.TableAppender) (*View[X], error)) (*View[X], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.cur.Load()
	if cur == nil {
		return nil, ErrNotPrepared
	}
	v, err := next(cur, l.app)
	if err != nil {
		return nil, err
	}
	l.cur.Store(v)
	return v, nil
}

// Append is the step most engines take: rows land on the fact table, and
// the next view has the grown table, its row count as the watermark, and
// the current view's dimensions, permutation and X. derive, if non-nil,
// then edits that view's engine-specific part before it is published.
func (l *Lineage[X]) Append(rows *dataset.Table, derive func(next *View[X]) error) (*View[X], error) {
	return l.Advance(func(cur *View[X], app *dataset.TableAppender) (*View[X], error) {
		fact, err := app.Append(rows)
		if err != nil {
			return nil, err
		}
		next := *cur
		next.DB = &dataset.Database{Fact: fact, Dimensions: cur.DB.Dimensions}
		next.Watermark = int64(fact.NumRows())
		if derive != nil {
			if err := derive(&next); err != nil {
				return nil, err
			}
		}
		return &next, nil
	})
}
