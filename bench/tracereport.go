package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// seamsOf lists the decorators of a traced stage by hop.
func (s *stage) seamsOf() map[string]seam {
	out := make(map[string]seam, len(s.hops))
	for hop, t := range s.hops {
		out[hop] = t.seam
	}
	return out
}

// sessionOf maps a decorator's session number to the loop's session. The
// loop opens its sessions one after the other and warms them up in the same
// order, so below a hop the n-th session a decorator sees belongs to the
// n-th analyst — after the one extra session a server.Remote opens for
// itself when it dials.
func sessionOf(hop string, sess int) int {
	if strings.HasPrefix(hop, "server") || strings.HasPrefix(hop, "shardsrv") {
		return sess - 1
	}
	return sess
}

// traceReport attributes the spans of a traced window to operations, writes
// them out, and derives the per-layer numbers that come from spans and from
// the counters at the decorated seams.
func traceReport(cfg runConfig, st *stage, res *runResult, w *window) error {
	ops, batches := w.ops, w.batches
	rec := st.rec
	rec.freeze()
	mismatches := rec.resolve(func(hop string, sess, seq int) (int64, uint64) {
		s := sessionOf(hop, sess)
		if s < 0 || s >= len(w.issued) || seq >= len(w.issued[s]) {
			return -1, 0
		}
		return w.issued[s][seq], w.sigs[s][seq]
	})
	if mismatches > 0 {
		res.fail("trace: %d spans below a hop belong to a different query than the one they were attributed to", mismatches)
	}
	self := rec.link(st.seamsOf())
	res.tracePath = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
	if err := rec.write(res.tracePath); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}

	// Self time by layer, over query operations and over batch operations.
	// Self times are what is left of a span once its children are taken out,
	// so within one operation they add up to the operation's time — except
	// under explore-sharded's gather, where two backends work side by side
	// and add up to more. A share is therefore of the self time recorded, not
	// of wall-clock time: the read shares and the write shares each sum to 1
	// with their part of the unattributed time.
	type shares struct {
		byLayer map[string]time.Duration
		loose   time.Duration // root self time: covered by no span
		total   time.Duration
	}
	read, write := shares{byLayer: map[string]time.Duration{}}, shares{byLayer: map[string]time.Duration{}}
	byName := make(map[string]series)
	for i, sp := range rec.spans {
		if sp.Q < 0 {
			continue
		}
		sh := &read
		if sp.Q >= batchBase {
			sh = &write
		}
		sh.total += self[i]
		switch sp.Name {
		case "query", "batch":
			sh.loose += self[i]
		default:
			sh.byLayer[sp.layer()] += self[i]
			byName[sp.Name] = append(byName[sp.Name], us(sp.dur()))
		}
	}
	for _, layer := range []string{"progressive", "sharedscan", "server", "shard"} {
		res.set("trace.share."+layer, ratio(read.byLayer[layer], read.total), 0)
	}
	for _, layer := range []string{"writer", "ingest", "durable", "progressive"} {
		res.set("trace.write_share."+layer, ratio(write.byLayer[layer], write.total), 0)
	}
	// Operation time under no span: before the first call, between calls,
	// after Done until the final is in hand. A wait inside a span — a query
	// attached to the scan but waiting for a core — is that span's self time:
	// decorators outside the program cannot see it, so this number finds
	// gaps between the layers, not inside them.
	res.set("trace.unattributed_share", ratio(read.loose+write.loose, read.total+write.total), 0)

	// Tracing overhead: half the queries of a session are traced, so the
	// two halves ran interleaved in the same window.
	var on, off series
	for _, o := range ops {
		if o.err != nil || o.timedOut || o.rejected || o.rung >= 0 {
			continue
		}
		if traced(o.seq) {
			on = append(on, ms(o.final))
		} else {
			off = append(off, ms(o.final))
		}
	}
	if base := off.pct(0.5); base > 0 {
		res.set("harness.trace_overhead_pct", 100*(on.pct(0.5)-base)/base, len(on))
	}

	// Span-derived per-layer numbers.
	res.set("progressive.start_query_us", byName["progressive.start_query"].mean(), len(byName["progressive.start_query"]))
	res.set("progressive.snapshot_us", byName["progressive.snapshot"].mean(), len(byName["progressive.snapshot"]))
	res.set("shard.snapshot_us", byName["shard.snapshot"].mean(), len(byName["shard.snapshot"]))

	// First snapshot as the engine's caller saw it, and what the hops above
	// the engine add to it.
	engFirsts, engineFirst := firstByOp(st, w, func(t *tracedEngine) bool { return t.seam.start == "progressive.start_query" })
	res.set("progressive.first_snapshot_ms", engFirsts.pct(0.5), len(engFirsts))
	var rows float64
	for _, o := range ops {
		if o.complete {
			rows += float64(st.db.Fact.NumRows())
		}
	}
	res.set("progressive.rows_per_s", rows/cfg.window.Seconds(), 0)

	queries := float64(max(len(ops), 1))
	switch cfg.workload {
	case wlServed:
		var over series
		for _, o := range ops {
			if d, ok := engineFirst[o.id]; ok && o.first > 0 {
				over = append(over, ms(o.first-d))
			}
		}
		res.set("server.overhead_ms_p50", over.pct(0.5), len(over))
		wire(st, res, queries, "server.wire_bytes_per_query", "server.writes_per_query", "server.frames_per_query")
		sizes := st.listeners[0].frameSizes()
		res.set("server.frame_bytes_p50", sizes.pct(0.5), len(sizes))
		res.set("server.frame_bytes_p99", sizes.pct(0.99), len(sizes))
		c := st.servers[0].Counters()
		res.set("server.rejected", float64(c.RejectedOverload.Load()+c.RejectedPerConn.Load()+c.RejectedDraining.Load()), 0)
		res.set("server.shed_late", float64(c.ShedLate.Load()), 0)
		res.set("server.dropped_intermediates", float64(c.DroppedIntermediates.Load()), 0)

	case wlSharded:
		// A backend's first partial, as the coordinator saw it arrive.
		firsts, backendFirst := firstByOp(st, w, func(t *tracedEngine) bool { return strings.HasPrefix(t.seam.hop, "backend") })
		res.set("shard.backend_first_partial_ms_p50", firsts.pct(0.5), len(firsts))
		var over series
		for _, o := range ops {
			if d, ok := backendFirst[o.id]; ok && o.first > 0 {
				over = append(over, ms(o.first-d))
			}
		}
		res.set("shard.coord_overhead_ms_p50", over.pct(0.5), len(over))
		wire(st, res, queries, "shard.partial_bytes_per_query", "", "shard.partial_frames_per_query")
		res.set("shard.failovers", float64(failovers(st)), 0)

	case wlIngest:
		ingestReport(st, res, batches, byName)
	}
	return nil
}

// firstByOp collects, over the decorators that match, how long each traced
// query took to show its caller a first snapshot (or partial): every value,
// and per operation the slowest decorator's.
func firstByOp(st *stage, w *window, match func(*tracedEngine) bool) (all series, slowest map[int64]time.Duration) {
	slowest = make(map[int64]time.Duration)
	for hop, t := range st.hops {
		if !match(t) {
			continue
		}
		for k, d := range t.firstSnaps() {
			s := sessionOf(hop, k[0])
			if s < 0 || s >= len(w.issued) || k[1] >= len(w.issued[s]) || w.issued[s][k[1]] < 0 {
				continue
			}
			id := w.issued[s][k[1]]
			all = append(all, ms(d))
			if d > slowest[id] {
				slowest[id] = d
			}
		}
	}
	return all, slowest
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// wire reports what crossed the loopback sockets per query: bytes and
// writes as the servers' connections counted them, frames as the clients
// received them.
func wire(st *stage, res *runResult, queries float64, bytesName, writesName, framesName string) {
	var bytes, writes, frames int64
	for _, l := range st.listeners {
		bytes += l.bytes.Load()
		writes += l.writes.Load()
	}
	for _, r := range st.remotes {
		fs := r.Stats()
		frames += fs.Intermediate.Load() + fs.Final.Load()
	}
	res.set(bytesName, float64(bytes)/queries, 0)
	if writesName != "" {
		res.set(writesName, float64(writes)/queries, 0)
	}
	res.set(framesName, float64(frames)/queries, 0)
}

// failovers counts the sessions a backend client had to re-open: with one
// replica per partition and no faults injected there must be none.
func failovers(st *stage) int64 {
	var n int64
	for _, r := range st.remotes {
		n += r.Stats().Reconnects.Load()
	}
	return n
}

// ingestReport derives the write path's per-layer numbers: spans at the
// Applier's seams, exact counts at the filesystem seam, and checkpoints as
// the interval from the checkpointer taking its view to the rename that
// commits it.
func ingestReport(st *stage, res *runResult, batches []*batchRec, byName map[string]series) {
	it, fs := st.ing, st.cfs
	n := float64(max(len(batches), 1))
	apply, engAppend, logBatch := byName["ingest.apply"], byName["progressive.append"], byName["durable.log_batch"]
	res.set("ingest.apply_us_per_batch", apply.mean(), len(apply))
	res.set("ingest.engine_append_us_per_batch", engAppend.mean(), len(engAppend))
	res.set("durable.log_batch_us_p50", logBatch.pct(0.5), len(logBatch))
	res.set("durable.log_batch_us_p99", logBatch.pct(0.99), len(logBatch))
	res.set("durable.fsyncs_per_batch", float64(fs.walSyncs.Load())/n, 0)
	res.set("durable.fsync_us_p50", series(fs.walSyncUS).pct(0.5), len(fs.walSyncUS))
	res.set("durable.write_bytes_per_batch", float64(fs.walBytes.Load())/n, 0)
	if rows := res.values["ingest.rows_acked"]; rows > 0 {
		res.set("wal_bytes_per_row", float64(fs.walBytes.Load())/rows, int(rows))
	}

	// Checkpoints: pair each start with the first commit after it.
	type interval struct{ from, to time.Time }
	var ckpts []interval
	var secs series
	ri := 0
	for _, from := range it.ckptStarts {
		for ri < len(fs.renamed) && fs.renamed[ri].Before(from) {
			ri++
		}
		if ri == len(fs.renamed) {
			break
		}
		ckpts = append(ckpts, interval{from, fs.renamed[ri]})
		secs = append(secs, fs.renamed[ri].Sub(from).Seconds())
		ri++
	}
	res.set("durable.checkpoints", float64(len(ckpts)), 0)
	res.set("durable.checkpoint_s", secs.mean(), len(secs))
	if len(ckpts) > 0 {
		res.set("durable.checkpoint_bytes", float64(fs.ckptBytes.Load())/float64(len(ckpts)+1), 0) // +1: Bootstrap's
	}
	var during series
	for _, b := range batches {
		if b.err != nil {
			continue
		}
		for _, c := range ckpts {
			if overlap(b.due, b.due.Add(b.ack), c.from, c.to) > 0 {
				during = append(during, ms(b.ack))
				break
			}
		}
	}
	res.set("durable.ack_ms_during_checkpoint_p99", during.pct(0.99), len(during))
}

// rungLabel names a ladder rung in metric names.
func rungLabel(rate float64) string { return "r" + strconv.FormatFloat(rate, 'f', 0, 64) }
