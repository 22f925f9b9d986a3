package ingest

import (
	"fmt"
	"sort"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
)

// Sink receives each applied ingest event. The harness hands every sink
// both forms of the rows — the batch and its materialization against the
// live view — so in-process engines append the table while a network
// forwarder ships the batch.
type Sink interface {
	ApplyBatch(b *Batch, rows *dataset.Table) error
}

// EngineSink adapts an engine.Appender into a Sink.
type EngineSink struct{ A engine.Appender }

// ApplyBatch implements Sink.
func (s EngineSink) ApplyBatch(_ *Batch, rows *dataset.Table) error { return s.A.Append(rows) }

// Harness owns one live ingestion timeline: the versioned ground-truth
// lineage (a private copy of the base database, grown batch by batch), the
// batch source, and the sinks every event fans out to. It implements the
// driver's IngestSink and Truth contracts, which is how mixed query+ingest
// workflows replay: ingest interactions call Ingest, and every fetched
// result is scored against the ground truth of the data version its
// watermark names — so accuracy metrics stay meaningful under staleness
// instead of comparing a pre-append answer to a post-append truth.
type Harness struct {
	src   BatchSource
	sinks []Sink

	mu       sync.Mutex
	gt       *dataset.TableAppender
	dims     []*dataset.Dimension
	views    map[int64]*version // watermark (rows) → data version
	marks    []int64            // sorted watermarks with views
	base     int64              // rows before any ingestion
	ingested int64              // rows appended so far
	batches  int64
}

// version is one recorded data version and its exact references, made on
// the first TruthAt that names it.
type version struct {
	db    *dataset.Database
	truth *groundtruth.Cache
}

// NewHarness builds a harness over base. The ground-truth lineage copies
// base's fact storage once (base is typically shared with engines that hold
// it by pointer), then grows by amortized appends.
func NewHarness(base *dataset.Database, src BatchSource, sinks ...Sink) *Harness {
	h := &Harness{
		src:   src,
		sinks: sinks,
		gt:    dataset.NewTableAppender(base.Fact, false),
		dims:  base.Dimensions,
		views: make(map[int64]*version),
		base:  int64(base.Fact.NumRows()),
	}
	h.recordViewLocked(&dataset.Database{Fact: h.gt.View(), Dimensions: h.dims})
	return h
}

// recordViewLocked indexes a view by its watermark. Caller holds h.mu (or
// is the constructor).
func (h *Harness) recordViewLocked(db *dataset.Database) {
	w := int64(db.Fact.NumRows())
	if _, ok := h.views[w]; !ok {
		h.views[w] = &version{db: db}
		h.marks = append(h.marks, w)
	}
}

// Ingest draws the next batch of n rows from the source, applies it to the
// ground-truth lineage and to every sink, and returns the new watermark.
// Events are serialized: one data version exists at a time, everywhere.
func (h *Harness) Ingest(n int) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := h.src.Next(n)
	if err != nil {
		return 0, err
	}
	rows, err := Materialize(h.views[h.base+h.ingested].db, b)
	if err != nil {
		return 0, err
	}
	newFact, err := h.gt.Append(rows)
	if err != nil {
		return 0, err
	}
	h.recordViewLocked(&dataset.Database{Fact: newFact, Dimensions: h.dims})
	h.ingested += int64(rows.NumRows())
	h.batches++
	for _, s := range h.sinks {
		if err := s.ApplyBatch(b, rows); err != nil {
			return 0, fmt.Errorf("ingest: batch %d: %w", h.batches, err)
		}
	}
	return h.base + h.ingested, nil
}

// Watermark returns the freshest ingested row count: base rows plus
// everything applied so far. The staleness of a result is Watermark minus
// the result's own watermark at fetch time.
func (h *Harness) Watermark() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.base + h.ingested
}

// IngestedRows returns the total rows appended (excluding the base).
func (h *Harness) IngestedRows() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ingested
}

// Batches returns the number of applied ingest events.
func (h *Harness) Batches() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.batches
}

// ViewAt returns the table view of the given watermark (or the nearest
// version at or below it, for watermarks that are not batch boundaries).
func (h *Harness) ViewAt(watermark int64) *dataset.Database {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.versionAtLocked(watermark).db
}

func (h *Harness) versionAtLocked(watermark int64) *version {
	if v, ok := h.views[watermark]; ok {
		return v
	}
	// Engines only ever answer at batch boundaries, but be robust: take the
	// nearest recorded version at or below the requested watermark.
	i := sort.Search(len(h.marks), func(i int) bool { return h.marks[i] > watermark })
	if i == 0 {
		return h.views[h.marks[0]]
	}
	return h.views[h.marks[i-1]]
}

// TruthAt returns the exact reference for q against the data version named
// by watermark (the nearest version at or below it), computed once per
// (version, signature).
func (h *Harness) TruthAt(q *query.Query, watermark int64) (*query.Result, error) {
	h.mu.Lock()
	v := h.versionAtLocked(watermark)
	if v.truth == nil {
		v.truth = groundtruth.New(v.db)
	}
	h.mu.Unlock()
	return v.truth.Get(q)
}

// FinalView returns the current (latest) database view — what a cold
// Prepare after quiesce would ingest.
func (h *Harness) FinalView() *dataset.Database {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.views[h.base+h.ingested].db
}

// Applier applies batches to one engine, serialized: the server-side
// receiving end of the ingest frame type. db provides the schema and the
// shared dictionaries batches are materialized against (its row count may
// be stale; only schema, dictionaries and dimension tables are read).
type Applier struct {
	mu  sync.Mutex
	db  *dataset.Database
	app engine.Appender
	log func(*Batch) error
}

// NewApplier wraps a prepared appender engine.
func NewApplier(db *dataset.Database, app engine.Appender) *Applier {
	return &Applier{db: db, app: app}
}

// SetLog installs a write-ahead hook, called under the apply mutex after a
// batch has fully validated (materialized) but before it reaches the
// engine. The durable serving path points this at the WAL's fsyncing
// append, which yields the two invariants redo recovery needs: a batch is
// never applied (or acked, or broadcast) unless it is already durable, and
// the WAL never contains a batch the engine would reject — validation
// happened first, against the same database the replay will see. Because
// the hook runs under the same mutex that serializes applies, WAL order is
// apply order. A hook error aborts the apply; the batch reaches neither
// the log nor the engine.
func (a *Applier) SetLog(log func(*Batch) error) {
	a.mu.Lock()
	a.log = log
	a.mu.Unlock()
}

// Apply materializes and appends one batch, returning the engine's
// post-apply watermark. With a SetLog hook installed the order is
// strictly validate → log (fsync) → apply.
func (a *Applier) Apply(b *Batch) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows, err := Materialize(a.db, b)
	if err != nil {
		return 0, err
	}
	if a.log != nil {
		if err := a.log(b); err != nil {
			return 0, fmt.Errorf("ingest: write-ahead log: %w", err)
		}
	}
	if err := a.app.Append(rows); err != nil {
		return 0, err
	}
	return a.app.Watermark(), nil
}
