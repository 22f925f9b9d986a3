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
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// Config tunes the engine.
type Config struct {
	// SampleRate is the fraction of fact rows materialized into the offline
	// stratified sample (paper: "We used a sample size of 1% of the data
	// size"; our scaled default is 10% because the absolute scale is ~250×
	// smaller). Default 0.10.
	SampleRate float64
	// StrataColumn is the nominal column defining strata. Every stratum is
	// guaranteed at least one sampled row, which is what keeps rare groups
	// visible. Default "carrier"; falls back to plain uniform sampling when
	// the column does not exist.
	StrataColumn string
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		c.SampleRate = 0.10
	}
	if c.StrataColumn == "" {
		c.StrataColumn = "carrier"
	}
	return c
}

// Engine is the offline stratified sampling engine.
type Engine struct {
	cfg Config

	mu       sync.RWMutex
	sample   *dataset.Database // materialized sample table (same schema/name)
	origRows int
	z        float64
	app      *dataset.TableAppender // owns the sample-table lineage
	seed     int64
	batchSeq int64 // appended batches, seeding each tail re-stratification
}

// New returns an unprepared engine.
func New(cfg Config) *Engine { return &Engine{cfg: cfg.withDefaults()} }

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
	rows, err := e.stratifiedRows(db.Fact, opts.Seed)
	if err != nil {
		return fmt.Errorf("sampledb: %w", err)
	}
	sampleTable, err := dataset.SelectRows(db.Fact, rows)
	if err != nil {
		return fmt.Errorf("sampledb: materialize sample: %w", err)
	}

	e.mu.Lock()
	e.sample = &dataset.Database{Fact: sampleTable}
	e.origRows = db.Fact.NumRows()
	e.z = z
	e.app = dataset.NewTableAppender(sampleTable, true) // SelectRows materialized a private copy
	e.seed = opts.Seed
	e.batchSeq = 0
	e.mu.Unlock()

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

// stratifiedRows picks sample row indices: proportional allocation per
// stratum with a minimum of one row, so rare strata survive.
func (e *Engine) stratifiedRows(fact *dataset.Table, seed int64) ([]uint32, error) {
	n := fact.NumRows()
	if n == 0 {
		return nil, dataset.ErrNoRows
	}
	rng := rand.New(rand.NewSource(seed + 17))
	col := fact.Column(e.cfg.StrataColumn)
	if col == nil || col.Field.Kind != dataset.Nominal {
		// No usable strata column: uniform sample.
		k := max(1, int(float64(n)*e.cfg.SampleRate))
		idx := stats.ReservoirSample(rng, n, k)
		out := make([]uint32, len(idx))
		for i, v := range idx {
			out[i] = uint32(v)
		}
		return out, nil
	}

	// Partition row indices by stratum.
	strata := make(map[uint32][]uint32)
	for i, code := range col.Codes {
		strata[code] = append(strata[code], uint32(i))
	}
	var out []uint32
	for _, rows := range strata {
		k := max(1, int(float64(len(rows))*e.cfg.SampleRate))
		picked := stats.ReservoirSample(rng, len(rows), k)
		for _, p := range picked {
			out = append(out, rows[p])
		}
	}
	return out, nil
}

// Append implements engine.Appender by re-stratifying the tail: the batch
// is sampled with the same per-stratum rule the offline sample was built
// with (proportional allocation at SampleRate, minimum one row per stratum
// present in the batch, deterministic per batch sequence number), and the
// chosen rows join the materialized sample while the represented population
// grows by the whole batch. Estimates therefore keep tracking the live
// table at the engine's fixed sampling rate — the offline-sampling
// trade-off the paper measures, extended to a moving target.
func (e *Engine) Append(rows *dataset.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sample == nil {
		return engine.ErrNotPrepared
	}
	e.batchSeq++
	picked, err := e.tailRows(rows, e.seed+17+31*e.batchSeq)
	if err != nil {
		return fmt.Errorf("sampledb: append: %w", err)
	}
	if len(picked) > 0 {
		sub, err := dataset.SelectRows(rows, picked)
		if err != nil {
			return fmt.Errorf("sampledb: append: %w", err)
		}
		newSample, err := e.app.Append(sub)
		if err != nil {
			return fmt.Errorf("sampledb: append: %w", err)
		}
		e.sample = &dataset.Database{Fact: newSample}
	}
	e.origRows += rows.NumRows()
	return nil
}

// tailRows picks the batch row indices to fold into the sample, mirroring
// stratifiedRows on the batch alone.
func (e *Engine) tailRows(batch *dataset.Table, seed int64) ([]uint32, error) {
	n := batch.NumRows()
	if n == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	col := batch.Column(e.cfg.StrataColumn)
	if col == nil || col.Field.Kind != dataset.Nominal {
		k := max(1, int(float64(n)*e.cfg.SampleRate))
		idx := stats.ReservoirSample(rng, n, k)
		out := make([]uint32, len(idx))
		for i, v := range idx {
			out[i] = uint32(v)
		}
		return out, nil
	}
	strata := make(map[uint32][]uint32)
	var codes []uint32
	for i, code := range col.Codes {
		if _, ok := strata[code]; !ok {
			codes = append(codes, code)
		}
		strata[code] = append(strata[code], uint32(i))
	}
	// Iterate strata in first-appearance order so the picked set is
	// deterministic for a given batch (map order would jitter replays).
	var out []uint32
	for _, code := range codes {
		rows := strata[code]
		k := max(1, int(float64(len(rows))*e.cfg.SampleRate))
		for _, p := range stats.ReservoirSample(rng, len(rows), k) {
			out = append(out, rows[p])
		}
	}
	return out, nil
}

// Watermark implements engine.Appender: the represented population.
func (e *Engine) Watermark() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int64(e.origRows)
}

// scanChunk is the number of sample rows folded between cancellation
// checks: two vectorized batches.
const scanChunk = 2 * engine.BatchRows

// StartQuery implements engine.Session: a single-threaded blocking scan over
// the sample table (vectorized batch kernels, like the column stores the
// engine models), published as a scaled estimate with CLT margins.
func (e *Engine) StartQuery(q *query.Query) (engine.Handle, error) {
	e.mu.RLock()
	sample, origRows, z := e.sample, e.origRows, e.z
	e.mu.RUnlock()
	if sample == nil {
		return nil, engine.ErrNotPrepared
	}
	plan, err := engine.Compile(sample, q)
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
		// origRows is both the represented population and the absorbed-rows
		// watermark: Append grows origRows by every batch row, so the pair
		// captured above names one consistent data version.
		res := gs.SnapshotScaled(int64(n), int64(origRows), int64(origRows), 0, z)
		// The sample is fixed: the estimate is final but never exact.
		res.Complete = false
		h.Publish(res)
	}()
	return h, nil
}

// OpenSession implements engine.Engine. The offline sample is immutable and
// queries are stateless, so the engine is its own session.
func (e *Engine) OpenSession() engine.Session { return e }

// LinkVizs implements engine.Session; offline sampling ignores link hints.
func (e *Engine) LinkVizs(from, to string) {}

// DeleteViz implements engine.Session.
func (e *Engine) DeleteViz(name string) {}

// WorkflowStart implements engine.Session.
func (e *Engine) WorkflowStart() {}

// WorkflowEnd implements engine.Session.
func (e *Engine) WorkflowEnd() {}

// Close implements engine.Session; the session holds nothing.
func (e *Engine) Close() {}

// SampleRows reports the materialized sample size (for tests and the data
// preparation report).
func (e *Engine) SampleRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.sample == nil {
		return 0
	}
	return e.sample.Fact.NumRows()
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
