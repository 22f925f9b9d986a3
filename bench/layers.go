package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/server"
	"idebench/internal/stats"
)

// denseSlots mirrors the planner's rule for its dense group-by path: the
// product of the bin dimensions' key domains fits 8192 slots. It is only
// used to split the direct scan timings by plan kind; the planner does not
// export its decision.
const denseSlots = 1 << 13

func smallDomain(db *dataset.Database, q *query.Query) bool {
	slots := 1.0
	for _, b := range q.Bins {
		col := db.Fact.Column(b.Field)
		if col == nil {
			return false
		}
		if b.Kind == dataset.Nominal {
			slots *= float64(col.Dict.Len())
			continue
		}
		lo, hi, ok := col.MinMax()
		if !ok {
			return false
		}
		slots *= float64(b.BinIndex(hi)-b.BinIndex(lo)) + 1
	}
	return slots <= denseSlots
}

// timeIt is the mean duration of f over n calls.
func timeIt(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(n)
}

// sink keeps the compiler from discarding a timed call's result.
var sink any

// layerTimings times public functions of single layers directly, over the
// run's own distinct queries, exact results and batches: the numbers a
// change to one layer should move first.
func layerTimings(cfg runConfig, st *stage, res *runResult, ops []*opRec, acked []*ingest.Batch) {
	db := st.db
	rows := db.Fact.NumRows()

	// Distinct sampled queries with their exact results.
	seen := make(map[string]bool)
	var picked []*opRec
	for _, o := range ops {
		if o.finalRes == nil || !o.complete || seen[o.q.Signature()] {
			continue
		}
		seen[o.q.Signature()] = true
		picked = append(picked, o)
		if len(picked) == cfg.p.layerSample {
			break
		}
	}

	var compile, scanAll, scanDense, scanMap, render, partial, fold, foldRender, allocs, encode, decode series
	dense := 0
	var ms0, ms1 runtime.MemStats
	for _, o := range picked {
		var plan *engine.Compiled
		compile = append(compile, us(timeIt(3, func() { plan, _ = engine.Compile(db, o.q) })))
		if plan == nil {
			continue
		}
		gs := engine.NewGroupState(plan)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		gs.ScanRange(0, rows)
		perRow := float64(time.Since(t0).Nanoseconds()) / float64(rows)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		scanAll = append(scanAll, perRow)
		if smallDomain(db, o.q) {
			dense++
			scanDense = append(scanDense, perRow)
		} else {
			scanMap = append(scanMap, perRow)
		}
		n := int64(rows)
		render = append(render, us(timeIt(3, func() { sink = gs.SnapshotScaled(n/2, n, n, 0, 1.96) })))
		var p *engine.Partial
		partial = append(partial, us(timeIt(3, func() { p = gs.Partial(n, n, n, true) })))
		var f *engine.PartialFold
		fold = append(fold, us(timeIt(3, func() {
			f = engine.NewPartialFold(o.q.Aggs)
			f.Add(p)
		})))
		foldRender = append(foldRender, us(timeIt(3, func() { sink = f.Render(1.96) })))

		msg := &server.ServerMsg{Type: server.MsgSnapshot, ID: 1, Seq: 1, Final: true, Result: o.finalRes}
		var data []byte
		encode = append(encode, us(timeIt(3, func() { data, _ = json.Marshal(msg) })))
		decode = append(decode, us(timeIt(3, func() {
			var m server.ServerMsg
			_ = json.Unmarshal(data, &m)
		})))
	}
	n := len(picked)
	res.set("engine.compile_us", compile.mean(), n)
	res.set("engine.scan_ns_per_row", scanAll.mean(), n)
	res.set("engine.scan_ns_per_row.dense", scanDense.mean(), len(scanDense))
	res.set("engine.scan_ns_per_row.map", scanMap.mean(), len(scanMap))
	res.set("engine.dense_plan_share", float64(dense)/float64(max(n, 1)), n)
	res.set("engine.render_us", render.mean(), n)
	res.set("engine.scan_allocs_per_query", allocs.mean(), n)
	res.set("engine.partial_us", partial.mean(), n)
	res.set("engine.fold_us", fold.mean(), n)
	res.set("engine.fold_render_us", foldRender.mean(), n)
	res.set("server.encode_us_per_frame", encode.mean(), n)
	res.set("server.decode_us_per_frame", decode.mean(), n)

	// The prepare-time reorder, on a fresh permutation.
	perm := stats.Permutation(rand.New(rand.NewSource(cfg.seed)), rows)
	res.set("dataset.reorder_s", timeIt(1, func() { sink, _ = db.ReorderFact(perm) }).Seconds(), 0)
	sink = nil

	if cfg.workload != wlIngest {
		return
	}
	if len(acked) > cfg.p.layerSample {
		acked = acked[:cfg.p.layerSample]
	}
	var enc, dec, mat, app series
	appender := dataset.NewTableAppender(db.Fact, false)
	for _, b := range acked {
		var data []byte
		enc = append(enc, us(timeIt(1, func() { data, _ = b.Encode() })))
		dec = append(dec, us(timeIt(1, func() { sink, _ = ingest.DecodeBatch(data) })))
		var tbl *dataset.Table
		mat = append(mat, us(timeIt(1, func() { tbl, _ = ingest.Materialize(db, b) })))
		if tbl != nil {
			app = append(app, us(timeIt(1, func() { sink, _ = appender.Append(tbl) })))
		}
	}
	res.set("ingest.encode_us_per_batch", enc.mean(), len(enc))
	res.set("ingest.decode_us_per_batch", dec.mean(), len(dec))
	res.set("ingest.materialize_us_per_batch", mat.mean(), len(mat))
	res.set("dataset.append_us_per_batch", app.mean(), len(app))

	var blob []byte
	encT := timeIt(1, func() { blob = dataset.EncodeTable(db.Fact) })
	decT := timeIt(1, func() { sink, _ = dataset.DecodeTable(blob) })
	mb := float64(len(blob)) / (1 << 20)
	res.set("dataset.encode_table_mb_per_s", mb/encT.Seconds(), 0)
	res.set("dataset.decode_table_mb_per_s", mb/decT.Seconds(), 0)
	sink = nil
}
