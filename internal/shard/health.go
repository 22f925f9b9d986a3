package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"idebench/internal/engine"
	"idebench/internal/query"
)

// CheckHealth runs one synchronous health pass over every replica: backends
// with a Pinger capability are probed and their health flag set from the
// outcome; backends without one keep whatever the query/ingest paths last
// observed. A replica that comes back healthy is re-marked in-sync only
// when its confirmed watermark proves it holds the partition's current
// version (no batch was routed while it was down) — otherwise it keeps
// serving at its honestly stale watermark until a rebalance hands it fresh
// state.
//
// The pass also audits for phantom rows: a replica whose watermark exceeds
// the partition's published ingest target holds rows the coordinator never
// routed (someone fed the backend directly), which is content divergence
// and quarantines it. Two guards keep the audit honest: it only runs while
// no ApplyBatch is in flight (a racing watermark read mid-apply is not
// divergence), and it only fires when some sibling sits exactly at the
// target — a whole partition ahead in lockstep is an un-acked batch from a
// crash between apply and journal, not a rogue replica.
//
// Returns the healthy and total replica counts; quarantined replicas count
// in total but never as healthy (they serve nothing).
func (co *Coordinator) CheckHealth() (healthy, total int) {
	co.mu.Lock()
	prepared := co.prepared
	sets := make([][]*replica, len(co.sets))
	targets := make([]int64, len(co.sets))
	for i := range co.sets {
		sets[i] = append([]*replica(nil), co.sets[i]...)
		if len(co.steps) > i && len(co.steps[i]) > 0 {
			targets[i] = co.steps[i][len(co.steps[i])-1].Local
		}
	}
	co.mu.Unlock()

	seq := co.applySeq.Load()
	quiescent := seq == co.applyDone.Load()

	type phantom struct {
		part int
		r    *replica
	}
	var phantoms []phantom
	for i, set := range sets {
		wms := make([]int64, len(set)) // confirmed watermark, -1 unknown
		for j, r := range set {
			if p, ok := r.be.(Pinger); ok {
				r.setHealthy(p.Ping() == nil)
			}
			h, synced := r.state()
			q := r.isQuarantined()
			wms[j] = r.watermark(-1)
			if h && !synced && !q && wms[j] >= targets[i] && wms[j] >= 0 {
				r.setSynced(true)
			}
			if h && !q {
				healthy++
			}
			total++
		}
		if !prepared || !quiescent {
			continue
		}
		for j, r := range set {
			if wms[j] <= targets[i] || r.isQuarantined() {
				continue
			}
			for k, s := range set {
				if k != j && !s.isQuarantined() && wms[k] == targets[i] {
					phantoms = append(phantoms, phantom{part: i, r: r})
					break
				}
			}
		}
	}
	// Commit quarantine decisions only if no apply started since the
	// targets were read — otherwise the overshoot may be a batch landing.
	if len(phantoms) > 0 && co.applySeq.Load() == seq {
		for _, ph := range phantoms {
			if co.quarantine(ph.part, ph.r) {
				healthy--
			}
		}
	}
	return healthy, total
}

// quarantine excludes r from serving and ingest, journaling the exclusion
// so it survives a coordinator restart. Reports whether the flag flipped
// (false when already quarantined). The journal append is counted on the
// error alarm if it fails — the in-memory exclusion stands regardless.
func (co *Coordinator) quarantine(part int, r *replica) bool {
	if !r.setQuarantined() {
		return false
	}
	if err := co.logTopology(TopologyEvent{Op: "quarantine", Partition: part, Name: r.name}); err != nil {
		co.aeErrors.Add(1)
	}
	return true
}

// StartHealthLoop probes replica health every interval until the returned
// stop function is called.
func (co *Coordinator) StartHealthLoop(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				co.CheckHealth()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Mismatch describes one anti-entropy divergence: two replicas of the same
// partition answered the same query with bitwise-different partials at the
// same watermark.
type Mismatch struct {
	Partition int
	A, B      string // replica names
	Watermark int64
	// Quarantined names the replica the divergence was attributed to (a
	// third replica's fragment broke the tie), empty when the partition
	// had no conclusive witness and both replicas stay serving.
	Quarantined string
}

// AntiEntropyCheck runs q to completion on two healthy in-sync replicas of
// every partition that has them and compares the resulting fragments
// bitwise via their canonical encoding. Partials are deterministic — same
// partition, same data version, same query must produce identical bytes —
// so any difference is real divergence (lost batch, corrupted state), not
// timing.
//
// The pair rotates across rounds so every replica of an R≥3 set is
// eventually audited, and a mismatch is escalated: a third eligible
// replica's fragment votes, and the replica it outvotes is quarantined
// (excluded from fan-out and ingest until readmitted via the rebalance
// path). With only two eligible replicas the mismatch is counted and
// returned but nobody is quarantined — evicting on a coin flip could
// remove the correct copy.
//
// A replica that fails its fragment run no longer aborts the sweep: the
// partition is skipped, the failure lands on the error alarm counter, and
// the remaining partitions are still checked; the joined errors come back
// to the caller. Comparisons only happen when both fragments are complete
// at the same watermark; partitions with fewer than two eligible replicas
// are skipped.
func (co *Coordinator) AntiEntropyCheck(q *query.Query, timeout time.Duration) ([]Mismatch, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	round := int(co.aeRound.Add(1) - 1)
	var out []Mismatch
	var errs []error
	fail := func(part int, name string, err error) {
		co.aeErrors.Add(1)
		errs = append(errs, fmt.Errorf("partition %d, %s: %w", part, name, err))
	}
	for i := 0; i < co.Shards(); i++ {
		set := co.replicaSet(i)
		var elig []*replica
		for _, r := range set {
			if h, synced := r.state(); h && synced && !r.isQuarantined() {
				elig = append(elig, r)
			}
		}
		if len(elig) < 2 {
			continue
		}
		// Rotate which adjacent pair is compared: over len(elig) rounds
		// every replica is in at least one audited pair.
		a := elig[round%len(elig)]
		b := elig[(round+1)%len(elig)]
		pa, err := co.runFragment(a, q, timeout)
		if err != nil {
			fail(i, a.name, err)
			continue
		}
		pb, err := co.runFragment(b, q, timeout)
		if err != nil {
			fail(i, b.name, err)
			continue
		}
		if pa == nil || pb == nil || !pa.Complete || !pb.Complete || pa.Watermark != pb.Watermark {
			// Not comparable (one replica mid-ingest or without partial
			// support); try again next round.
			continue
		}
		ea, eb := pa.AppendBinary(nil), pb.AppendBinary(nil)
		co.aeChecks.Add(1)
		if bytes.Equal(ea, eb) {
			continue
		}
		co.aeMismatches.Add(1)
		m := Mismatch{Partition: i, A: a.name, B: b.name, Watermark: pa.Watermark}
		if loser := co.outvoted(i, elig, a, b, ea, eb, pa.Watermark, q, timeout); loser != nil {
			co.quarantine(i, loser)
			m.Quarantined = loser.name
		}
		out = append(out, m)
	}
	if len(errs) > 0 {
		return out, fmt.Errorf("shard: anti-entropy sweep: %w", errors.Join(errs...))
	}
	return out, nil
}

// outvoted attributes a mismatch between a and b by polling the other
// eligible replicas: the first witness fragment that matches one side
// bitwise (complete, at the same watermark) convicts the other. Returns
// nil when no witness is conclusive.
func (co *Coordinator) outvoted(part int, elig []*replica, a, b *replica, ea, eb []byte, wm int64, q *query.Query, timeout time.Duration) *replica {
	for _, w := range elig {
		if w == a || w == b {
			continue
		}
		pw, err := co.runFragment(w, q, timeout)
		if err != nil {
			co.aeErrors.Add(1)
			continue
		}
		if pw == nil || !pw.Complete || pw.Watermark != wm {
			continue
		}
		switch ew := pw.AppendBinary(nil); {
		case bytes.Equal(ew, ea):
			return b
		case bytes.Equal(ew, eb):
			return a
		}
		// The witness agrees with neither side: keep polling; if nobody
		// breaks the tie the partition stays on the alarm counters only.
	}
	return nil
}

// runFragment executes q on one replica through the coordinator's probe
// session until done (or timeout, which cancels) and returns its raw
// fragment.
func (co *Coordinator) runFragment(r *replica, q *query.Query, timeout time.Duration) (*engine.Partial, error) {
	sh, err := co.probe.startOn(r, q)
	if err != nil {
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-sh.Done():
	case <-t.C:
		sh.Cancel()
		<-sh.Done()
		return nil, fmt.Errorf("timed out after %v", timeout)
	}
	return partialOf(sh), nil
}

// StartAntiEntropyLoop runs AntiEntropyCheck every interval with the query
// produced by qf, logging nothing itself: divergence shows up on the
// Topology alarm counters (and /healthz). Stops when the returned function
// is called.
func (co *Coordinator) StartAntiEntropyLoop(interval, timeout time.Duration, qf func() *query.Query) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// The sweep's errors are already accounted on the aeErrors
				// alarm counter (surfaced via Topology and /healthz); the
				// loop keeps watching regardless.
				if _, err := co.AntiEntropyCheck(qf(), timeout); err != nil {
					continue
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
