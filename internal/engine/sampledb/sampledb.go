// Package sampledb implements the paper's "System X" analogue: an in-memory
// AQP engine operating on stratified sample tables created offline. The run
// time of a query cannot be set; it is determined by the sample size chosen
// at preparation time. Consequently result quality is constant across time
// requirements — the paper's key observation about offline sampling — and
// the per-query behaviour is blocking: the (approximate) result appears only
// once the full sample has been scanned.
package sampledb

import (
	"fmt"
	"math/rand"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// sampleRate is the fraction of fact rows materialized into the offline
// stratified sample (paper: "We used a sample size of 1% of the data size";
// ours is 10% because the absolute scale is ~250× smaller).
const sampleRate = 0.10

// strataColumn is the nominal column defining strata. Every stratum is
// guaranteed at least one sampled row, which is what keeps rare groups
// visible; a table without the column is sampled uniformly.
const strataColumn = "carrier"

// Engine is the offline stratified sampling engine. Its lineage publishes
// the sample and the population it represents as one view: DB is the
// materialized sample table (same schema and name as the fact table), and
// Watermark is the represented population — every absorbed row, sampled or
// not.
type Engine struct {
	engine.Stateless
	// sampleRate starts as the package constant; in-package tests vary it.
	sampleRate float64
	lin        engine.Lineage[sampleState]
}

// sampleState is what each sampledb version carries beside the sample.
type sampleState struct {
	z     float64
	seed  int64
	batch int64 // appended batches, seeding each tail re-stratification
}

// New returns an unprepared engine.
func New() *Engine { return &Engine{sampleRate: sampleRate} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "sampledb" }

// Prepare builds the offline stratified sample tables and runs a warm-up
// query, both of which dominate this engine's data preparation time (paper
// Sec. 5.2: System X "requires ... that each connection must execute a
// warm-up query"). Normalized schemas are rejected: System X "only works on
// de-normalized data".
func (e *Engine) Prepare(db *dataset.Database, opts engine.Options) error {
	if db.IsNormalized() {
		return fmt.Errorf("sampledb: normalized schemas are not supported")
	}
	opts = opts.Normalize()
	z, err := stats.ZScore(opts.Confidence)
	if err != nil {
		return fmt.Errorf("sampledb: %w", err)
	}
	if db.Fact.NumRows() == 0 {
		return fmt.Errorf("sampledb: %w", dataset.ErrNoRows)
	}
	sampleTable, err := dataset.SelectRows(db.Fact, e.stratifiedRows(db.Fact, opts.Seed+17))
	if err != nil {
		return fmt.Errorf("sampledb: materialize sample: %w", err)
	}

	// SelectRows materialized a private copy: the lineage may grow it.
	e.lin.Reset(&engine.View[sampleState]{
		DB:        &dataset.Database{Fact: sampleTable},
		Watermark: int64(db.Fact.NumRows()),
		X:         sampleState{z: z, seed: opts.Seed},
	})

	// Warm-up query: touch every sampled row once.
	warm := &query.Query{
		VizName: "warmup",
		Table:   db.Fact.Name,
		Bins:    []query.Binning{warmupBinning(db.Fact)},
		Aggs:    []query.Aggregate{{Func: query.Count}},
	}
	if h, err := e.StartQuery(warm); err == nil {
		<-h.Done()
	}
	return nil
}

// Append implements engine.Appender by re-stratifying the tail: the batch
// is sampled with the same per-stratum rule the offline sample was built
// with (proportional allocation at the sample rate, minimum one row per
// stratum present in the batch, deterministic per batch sequence number),
// and the chosen rows join the materialized sample while the represented
// population grows by the whole batch. Estimates therefore keep tracking
// the live table at the engine's fixed sampling rate — the offline-sampling
// trade-off the paper measures, extended to a moving target.
func (e *Engine) Append(rows *dataset.Table) error {
	_, err := e.lin.Advance(func(cur *engine.View[sampleState], app *dataset.TableAppender) (*engine.View[sampleState], error) {
		next := *cur
		next.X.batch++
		if picked := e.stratifiedRows(rows, cur.X.seed+17+31*next.X.batch); len(picked) > 0 {
			sub, err := dataset.SelectRows(rows, picked)
			if err != nil {
				return nil, err
			}
			fact, err := app.Append(sub)
			if err != nil {
				return nil, err
			}
			next.DB = &dataset.Database{Fact: fact}
		}
		next.Watermark += int64(rows.NumRows())
		return &next, nil
	})
	if err != nil {
		return fmt.Errorf("sampledb: append: %w", err)
	}
	return nil
}

// stratifiedRows picks the row indices of t to sample: proportional
// allocation per stratum at the sample rate with a minimum of one row, so
// rare strata survive. It builds the offline sample from the prepared table
// and re-stratifies every appended batch alone. Strata are visited in
// first-appearance order, so the picked set is deterministic for a given
// table and seed (map order would jitter replays).
func (e *Engine) stratifiedRows(t *dataset.Table, seed int64) []uint32 {
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	col := t.Column(strataColumn)
	if col == nil || col.Field.Kind != dataset.Nominal {
		// No usable strata column: uniform sample.
		k := max(1, int(float64(n)*e.sampleRate))
		idx := stats.ReservoirSample(rng, n, k)
		out := make([]uint32, len(idx))
		for i, v := range idx {
			out[i] = uint32(v)
		}
		return out
	}
	strata := make(map[uint32][]uint32)
	var codes []uint32
	for i, code := range col.Codes {
		if _, ok := strata[code]; !ok {
			codes = append(codes, code)
		}
		strata[code] = append(strata[code], uint32(i))
	}
	var out []uint32
	for _, code := range codes {
		rows := strata[code]
		k := max(1, int(float64(len(rows))*e.sampleRate))
		for _, p := range stats.ReservoirSample(rng, len(rows), k) {
			out = append(out, rows[p])
		}
	}
	return out
}

// Watermark implements engine.Appender: the represented population.
func (e *Engine) Watermark() int64 { return e.lin.Watermark() }

// scanChunk is the number of sample rows folded between cancellation
// checks: two vectorized batches.
const scanChunk = 2 * engine.BatchRows

// StartQuery implements engine.Session: a single-threaded blocking scan over
// the sample table (vectorized batch kernels, like the column stores the
// engine models), published as a scaled estimate with CLT margins.
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
	go func() {
		defer h.Finish()
		gs := engine.NewGroupState(plan)
		n := plan.NumRows
		for lo := 0; lo < n; lo += scanChunk {
			if h.Cancelled() {
				return // blocking model: nothing delivered before completion
			}
			hi := lo + scanChunk
			if hi > n {
				hi = n
			}
			gs.ScanRange(lo, hi)
		}
		if h.Cancelled() {
			return
		}
		// The view's watermark is both the represented population and the
		// absorbed-rows version: the sample and the population it represents
		// were published together.
		res := gs.SnapshotScaled(int64(n), v.Watermark, v.Watermark, 0, v.X.z)
		// The sample is fixed: the estimate is final but never exact.
		res.Complete = false
		h.Publish(res)
	}()
	return h, nil
}

// OpenSession implements engine.Engine. The offline sample is immutable and
// queries are stateless, so the engine is its own session.
func (e *Engine) OpenSession() engine.Session { return e }

// SampleRows reports the materialized sample size (for tests and the data
// preparation report).
func (e *Engine) SampleRows() int {
	if v := e.lin.Load(); v != nil {
		return v.DB.Fact.NumRows()
	}
	return 0
}

var (
	_ engine.Engine   = (*Engine)(nil)
	_ engine.Appender = (*Engine)(nil)
)

// warmupBinning picks any column for the warm-up scan.
func warmupBinning(t *dataset.Table) query.Binning {
	for _, f := range t.Schema.Fields {
		if f.Kind == dataset.Nominal {
			return query.Binning{Field: f.Name, Kind: dataset.Nominal}
		}
	}
	return query.Binning{Field: t.Schema.Fields[0].Name, Kind: dataset.Quantitative, Width: 1e9}
}
