package main

import "time"

// summarize turns a window's operation records into the metrics an analyst
// would notice, and holds the run to the generator's promises. wrong is how
// many sampled finals failed their check.
func summarize(cfg runConfig, st *stage, res *runResult, in inputs, w *window, wrong int) {
	ops, batches := w.ops, w.batches
	// The latency and screen metrics are read over the closed loop's
	// queries: every query, except explore-served's ladder.
	var finals, firsts, progress, onTime, overshoot, stale series
	n, missed, late, broke, degraded, completed, inexact := 0, 0, 0, 0, 0, 0, 0
	for _, o := range ops {
		if o.err != nil || o.timedOut {
			broke++
		}
		if o.degraded {
			degraded++
		}
		if o.rung >= 0 {
			continue // the ladder is read rung by rung
		}
		n++
		switch {
		case o.missed():
			missed++
			progress = append(progress, 0)
			onTime = append(onTime, 0)
		case o.trLate:
			late++
			progress = append(progress, o.trProgress)
		default:
			progress = append(progress, o.trProgress)
			onTime = append(onTime, o.trProgress)
		}
		if o.err != nil || o.timedOut || o.rejected {
			continue
		}
		finals = append(finals, ms(o.final))
		if o.first > 0 {
			firsts = append(firsts, ms(o.first))
		}
		if o.trTaken {
			overshoot = append(overshoot, ms(o.trOvershoot))
			stale = append(stale, float64(o.trStale))
		}
		switch {
		case o.shed:
		case !o.complete:
			inexact++
		case o.due.Add(o.final).Sub(w.t0) <= in.closed:
			completed++
		}
	}
	res.set("final_ms_p50", finals.pct(0.5), len(finals))
	res.set("final_ms_p99", finals.pct(0.99), len(finals))
	res.set("progress_at_tr", progress.mean(), len(progress))
	// The same mean without the screens looked at late: the difference is
	// what the harness's lateness does to the number.
	res.set("harness.progress_at_tr_ontime", onTime.mean(), len(onTime))
	// Exact finals in hand before the closed loop's time was up, over that
	// time.
	res.set("queries_per_s", float64(completed)/in.closed.Seconds(), completed)
	res.set("tr_miss_share", float64(missed)/float64(max(n, 1)), n)
	if cfg.workload == wlServed || cfg.workload == wlSharded {
		res.set("ttfs_ms_p50", firsts.pct(0.5), len(firsts))
		res.set("ttfs_ms_p99", firsts.pct(0.99), len(firsts))
	}
	res.set("shard.degraded_answers", float64(degraded), 0)
	res.set("ingest.staleness_rows_p99", stale.pct(0.99), len(stale))
	res.set("harness.tr_timer_overshoot_ms_p99", overshoot.pct(0.99), len(overshoot))

	// Failed operations are the ones that broke: an error, no final, a
	// final that is wrong or not exact. A query the analyst did not have on
	// screen in time is the system's measured behaviour, not a failure of
	// the operation: it is tr_miss_share, and it pulls progress_at_tr down.
	res.attempted = len(ops) + len(batches)
	res.failed = broke + wrong
	if broke > 0 {
		res.fail("%d queries failed outright", broke)
	}
	// A final that is not exact although nothing cut the query short. On
	// ingest-mixed that is the engine's documented behaviour when a batch
	// lands between a query's completion and the fetch of its result (the
	// finished state is re-armed for the new rows); anywhere else it is a
	// wrong answer.
	if cfg.workload == wlIngest {
		res.set("ingest.rearmed_finals", float64(inexact), 0)
	} else if inexact > 0 {
		res.failed += inexact
		res.fail("%d finals were not exact", inexact)
	}
	if degraded > 0 {
		res.fail("%d answers were degraded (a partition did not report)", degraded)
	}
	if n == 0 {
		res.fail("no query was timed")
	}
	lateShare := float64(late) / float64(max(n, 1))
	res.set("harness.tr_late_share", lateShare, n)
	if lateShare > maxLateShare {
		res.invalid("%.1f%% of screens were sampled more than %v after the time requirement (limit %.0f%%)",
			100*lateShare, maxOvershoot(st.tr), 100*maxLateShare)
	}

	if cfg.workload == wlServed {
		summarizeLadder(cfg, res, in, ops, w.ladderT0)
	}
	if cfg.workload == wlIngest {
		var acks, lag series
		var rows int64
		for _, b := range batches {
			if b.err != nil {
				res.failed++
				continue
			}
			acks = append(acks, ms(b.ack))
			lag = append(lag, ms(b.issueLag))
			rows += int64(b.rows)
		}
		res.set("ingest_ack_ms_p50", acks.pct(0.5), len(acks))
		res.set("ingest_ack_ms_p99", acks.pct(0.99), len(acks))
		// One writer applies one batch at a time, so a batch issued late
		// waited for its predecessor's acknowledgement: that is the write
		// path's backlog, already inside the ack time, not generator error.
		res.set("harness.sched_lag_ms_p99", lag.pct(0.99), len(lag))
		res.values["ingest.rows_acked"] = float64(rows)
		if len(acks) == 0 {
			res.fail("no batch was acknowledged")
		}
	}
}

// summarizeLadder reads explore-served's rate ladder: per rung, how late
// first snapshots came and what share of queries had one inside the time
// requirement; and the highest rate the server met it at.
func summarizeLadder(cfg runConfig, res *runResult, in inputs, ops []*opRec, t0 time.Time) {
	trMS := ms(trServed)
	type rungStat struct {
		firsts, lag series
		n, good     int
		// busy is the query-seconds in flight during each half of the rung.
		busy [2]float64
	}
	stats := make([]rungStat, len(in.rungs))
	for _, o := range ops {
		if o.rung < 0 {
			continue
		}
		rs := &stats[o.rung]
		rs.n++
		rs.lag = append(rs.lag, ms(o.issueLag))
		if o.first > 0 {
			rs.firsts = append(rs.firsts, ms(o.first))
		}
		if !o.missed() && o.first > 0 && ms(o.first) <= trMS {
			rs.good++
		}
		r := in.rungs[o.rung]
		mid := t0.Add((r.start + r.end) / 2)
		from, to := o.due, o.due.Add(o.final)
		rs.busy[0] += overlap(from, to, t0.Add(r.start), mid)
		rs.busy[1] += overlap(from, to, mid, t0.Add(r.end))
	}
	// The generator's promise is checked where the server keeps up: on the
	// lower half of the ladder. Above the knee the machine is saturated and
	// the generator, sharing it, runs late too; those rungs fail on their
	// own numbers.
	var lowLag series
	ok := make([]bool, len(in.rungs))
	for i, r := range in.rungs {
		rs := stats[i]
		label := rungLabel(r.rate)
		share := float64(rs.good) / float64(max(rs.n, 1))
		res.set("loadgen.ttfs_ms_p99."+label, rs.firsts.pct(0.99), len(rs.firsts))
		res.set("loadgen.good_share."+label, share, rs.n)
		if i < len(in.rungs)/2 {
			lowLag = append(lowLag, rs.lag...)
		}
		// In a steady rung the second half holds about what the first did;
		// a backlog shows as the second half holding much more.
		growing := rs.busy[1] > 2*rs.busy[0]+0.1
		// A rung holds 30-450 arrivals: the generator's lag is held to the
		// limit at the highest percentile, up to the 99th, that has ten
		// arrivals beyond it (the 99th of 50 is their maximum, and one late
		// wake-up would fail the rung). A late issue is inside the query's
		// own time anyway, which runs from when it was due.
		tail := min(0.99, max(0.5, 1-10/float64(max(rs.n, 1))))
		ok[i] = rs.n > 0 && share >= 0.99 && rs.lag.pct(tail) < ms(maxSchedLagTail) && !growing
	}
	best := 0.0
	for i, r := range in.rungs {
		if !ok[i] {
			break
		}
		best = r.rate
	}
	res.set("max_rate_ok", best, 0)
	res.set("harness.sched_lag_ms_p99", lowLag.pct(0.99), len(lowLag))
	if lowLag.pct(0.5) > ms(maxSchedLagP50) {
		res.invalid("generator lag p50 %.3f ms on the lower half of the ladder exceeds %v: it cannot keep its schedule",
			lowLag.pct(0.5), maxSchedLagP50)
	}
}

// overlap is the seconds [from, to) spends inside [lo, hi).
func overlap(from, to, lo, hi time.Time) float64 {
	if from.Before(lo) {
		from = lo
	}
	if to.After(hi) {
		to = hi
	}
	if !to.After(from) {
		return 0
	}
	return to.Sub(from).Seconds()
}
