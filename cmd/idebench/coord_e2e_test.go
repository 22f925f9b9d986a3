package main

import (
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/server"
)

// freePort reserves a loopback address for a process that will bind it
// later (the warm standby binds only at takeover, but its address must be
// known up front so the primary can state it as a peer).
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestCoordFailoverE2E is the control-plane redundancy wall: a real
// 2-partition x 2-replica tier behind a journaling `idebench coord`
// primary, with a warm-standby coordinator tailing the same journal. The
// acts:
//
//  1. a replica seeded with rogue rows (ingested directly into the shard,
//     bypassing the coordinator) is quarantined by the health loop's
//     divergence audit, visible on /healthz, and excluded from serving —
//     the merged answer stays complete, fully covered and bitwise equal to
//     a cold single-node prepare;
//  2. the quarantined replica is readmitted through the rebalance path
//     (remove, then add a fresh process) and the tier answers bitwise
//     again with every member healthy and in sync;
//  3. live ingest advances the tier through acknowledged batches — each
//     journaled before its ack — then the primary coordinator is SIGKILLed;
//  4. the standby probe-confirms the death, takes over from the persisted
//     topology and version log, and serves at EXACTLY the acknowledged
//     watermark: the merged result is digest-identical to a cold
//     single-node prepare of the client's own lineage at that version;
//  5. a second divergent replica quarantined just before the kill is STILL
//     quarantined on the standby — the flag recovered from the journal,
//     not re-derived;
//  6. the client that dialed only the primary fails over through the
//     address rotation it learned from the hello Peers list, and ingest
//     resumed against the standby extends the recovered version log with
//     exact translation.
func TestCoordFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kill -9s a replicated serving tier with a standby coordinator")
	}
	const (
		rows      = 20000
		parts     = 2
		batchRows = 400
	)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "idebench.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "coord-state")

	startReplica := func(part int, primary bool) *servedProc {
		role := "-replica-of"
		if primary {
			role = "-shard-index"
		}
		return startProc(t, bin, "shard",
			"-rows", strconv.Itoa(rows), "-seed", "1",
			role, strconv.Itoa(part), "-shard-count", strconv.Itoa(parts),
			"-addr", "127.0.0.1:0")
	}
	p0r0 := startReplica(0, true)
	p0r1 := startReplica(0, false)
	p1r0 := startReplica(1, true)
	p1r1 := startReplica(1, false)

	standbyAddr := freePort(t)
	primary := startProc(t, bin, "coord",
		"-rows", strconv.Itoa(rows), "-seed", "1",
		"-shards", p0r0.addr+"/"+p0r1.addr+","+p1r0.addr+"/"+p1r1.addr,
		"-data-dir", dataDir,
		"-peers", standbyAddr,
		"-health-interval", "100ms",
		"-addr", "127.0.0.1:0")
	standby, standbyServing := launchProc(t, bin, "coord",
		"-rows", strconv.Itoa(rows), "-seed", "1",
		"-standby-of", primary.addr,
		"-data-dir", dataDir,
		"-probe-interval", "100ms", "-takeover-failures", "3",
		"-health-interval", "100ms",
		"-addr", standbyAddr)

	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	countQ := &query.Query{
		VizName: "coord_count", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}

	// The long-lived client dials ONLY the primary; the hello Peers list
	// must teach it the standby's address.
	rem, err := server.NewRemoteWithOptions(primary.addr, server.RemoteOptions{
		Reconnect:  true,
		MaxRetries: 12,
		BackoffMax: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if err := rem.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if addrs := rem.Addrs(); len(addrs) != 2 || addrs[1] != standbyAddr {
		t.Fatalf("client rotation after hello = %v, want [%s %s]", addrs, primary.addr, standbyAddr)
	}

	sess := rem.OpenSession().(*server.RemoteSession)
	defer sess.Close()
	query1 := func(who string) *query.Result {
		t.Helper()
		h, err := sess.StartQuery(countQ)
		if err != nil {
			t.Fatalf("%s: start: %v", who, err)
		}
		select {
		case <-h.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: query did not complete (connected to %s, snapshot %+v)",
				who, sess.RemoteAddr(), h.Snapshot())
		}
		return h.Snapshot()
	}

	// The bitwise base reference: cold single-node prepare of the seed data.
	s := core.DefaultSettings()
	s.DataSize = rows
	s.Seed = 1
	single, err := core.Prepare("progressive", db, s)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := runQueryToDone(t, single.Engine, countQ, "single-node base")

	// rogueFeed appends n rows directly into one shard replica, bypassing
	// the coordinator's routing entirely: content divergence as a process
	// sees it — the replica's watermark runs ahead of the partition target.
	rogueSeq := int64(1000)
	rogueFeed := func(shardAddr string, n int, seed int64) {
		t.Helper()
		src, err := ingest.NewSource(rows, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := src.Next(n)
		if err != nil {
			t.Fatal(err)
		}
		rogueSeq++
		b.Seq = rogueSeq
		sr, err := server.NewRemote(shardAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		before := sr.Watermark()
		if err := sr.Ingest(b); err != nil {
			t.Fatal(err)
		}
		waitFor2(t, 15*time.Second, "rogue rows applied", func() bool {
			return sr.Watermark() >= before+int64(n)
		})
	}

	// Act 1: divergence -> quarantine. p0r1 grows 400 rows no sibling has.
	rogueFeed(p0r1.addr, batchRows, 777)
	waitTopology(t, primary.addr, func(topo *engine.Topology) bool {
		for _, r := range topo.Partitions[0].Replicas {
			if r.Quarantined {
				return true
			}
		}
		return false
	}, "divergent replica quarantined")
	hz := getHealthz(t, primary.addr)
	quarantinedName := ""
	for _, r := range hz.Topology.Partitions[0].Replicas {
		if r.Quarantined {
			quarantinedName = r.Name
			if r.Synced {
				t.Fatalf("quarantined replica %q still marked synced", r.Name)
			}
		}
	}
	if quarantinedName == "" {
		t.Fatal("no quarantined replica in partition 0 topology")
	}
	got := query1("with quarantined replica")
	if got == nil || !got.Complete || (got.Coverage != nil && !got.Coverage.Full()) {
		t.Fatalf("quarantine degraded the answer: %+v", got)
	}
	if resultDigest(got) != resultDigest(wantBase) {
		t.Fatalf("quarantine left a wrong answer in the merge:\nmerged %v\nsingle %v", got.Bins, wantBase.Bins)
	}

	// Act 2: readmission through the rebalance path — remove the divergent
	// member, attach a fresh process, health loop promotes it.
	out, err := exec.Command(bin, "rebalance",
		"-addr", primary.addr, "-op", "remove",
		"-partition", "0", "-name", quarantinedName).CombinedOutput()
	if err != nil {
		t.Fatalf("rebalance remove %q: %v\n%s", quarantinedName, err, out)
	}
	kill9(t, p0r1, "divergent replica process")
	p0r2 := startReplica(0, false)
	out, err = exec.Command(bin, "rebalance",
		"-addr", primary.addr, "-op", "add",
		"-partition", "0", "-shard-addr", p0r2.addr).CombinedOutput()
	if err != nil {
		t.Fatalf("rebalance add: %v\n%s", err, out)
	}
	waitTopology(t, primary.addr, func(topo *engine.Topology) bool {
		set := topo.Partitions[0].Replicas
		if len(set) != 2 {
			return false
		}
		for _, r := range set {
			if !r.Healthy || !r.Synced || r.Quarantined {
				return false
			}
		}
		return true
	}, "readmitted replica healthy+synced")
	got = query1("after readmission")
	if got == nil || !got.Complete || resultDigest(got) != resultDigest(wantBase) {
		t.Fatalf("readmitted tier not bitwise clean: %+v", got)
	}

	// Act 3: live ingest through the coordinator — every ack means the
	// version step was journaled first.
	src, err := ingest.NewSource(rows, 99)
	if err != nil {
		t.Fatal(err)
	}
	h := ingest.NewHarness(db, src, rem)
	for i := 0; i < 5; i++ {
		if _, err := h.Ingest(batchRows); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
	ackTarget := int64(rows + 5*batchRows)
	waitFor2(t, 60*time.Second, "ingest acked", func() bool {
		return rem.Watermark() >= ackTarget
	})

	// A second divergent replica, quarantined on the PRIMARY just before it
	// dies: the standby must recover the flag from the journal.
	rogueFeed(p1r1.addr, batchRows, 778)
	waitTopology(t, primary.addr, func(topo *engine.Topology) bool {
		for _, r := range topo.Partitions[1].Replicas {
			if r.Quarantined {
				return true
			}
		}
		return false
	}, "second divergent replica quarantined")
	// Let the quarantine's journal append land before the kill.
	time.Sleep(300 * time.Millisecond)

	// Act 4: kill -9 the primary between acked batches. No drain, no
	// goodbye; the journal on disk is the only surviving control plane.
	kill9(t, primary, "primary coordinator")

	var standbyBound string
	select {
	case standbyBound = <-standbyServing:
	case <-time.After(60 * time.Second):
		t.Fatalf("standby never took over; its output:\n%s", standby.output())
	}
	if standbyBound != standbyAddr {
		t.Fatalf("standby bound %s, want %s", standbyBound, standbyAddr)
	}

	// The standby serves the journaled topology: quarantine flag intact,
	// watermark exactly the acknowledged version.
	waitTopology(t, standbyAddr, func(topo *engine.Topology) bool {
		q := false
		for _, r := range topo.Partitions[1].Replicas {
			if r.Quarantined {
				q = true
			}
		}
		return q
	}, "quarantine flag recovered on the standby")
	shz := getHealthz(t, standbyAddr)
	if shz.Role != "coord" || shz.Watermark != ackTarget {
		t.Fatalf("standby healthz role=%q watermark=%d, want coord at %d\noutput:\n%s",
			shz.Role, shz.Watermark, ackTarget, standby.output())
	}

	// Exact-version bitwise gate: the merged answer at the recovered
	// watermark is digest-identical to a cold single-node prepare of the
	// client's own lineage at that version. The client reaches the standby
	// purely through the rotation it learned from the primary's hello.
	vdb := h.ViewAt(ackTarget)
	if got := int64(vdb.Fact.NumRows()); got != ackTarget {
		t.Fatalf("client lineage has no view at watermark %d (nearest %d)", ackTarget, got)
	}
	singleAfter, err := core.Prepare("progressive", vdb, s)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter := runQueryToDone(t, singleAfter.Engine, countQ, "single-node recovered version")
	got = query1("served by the standby")
	if got == nil || !got.Complete || (got.Coverage != nil && !got.Coverage.Full()) {
		t.Fatalf("standby answer not complete/full: %+v\nstandby output:\n%s", got, standby.output())
	}
	if got.Watermark != ackTarget {
		t.Fatalf("standby result watermark %d, want exactly %d", got.Watermark, ackTarget)
	}
	if resultDigest(got) != resultDigest(wantAfter) {
		t.Fatalf("standby merge differs from single-node at version %d:\nmerged %v\nsingle %v",
			ackTarget, got.Bins, wantAfter.Bins)
	}
	if rem.Stats().Reconnects.Load() == 0 {
		t.Fatal("client never reconnected — it should have redialed through the rotation")
	}

	// Act 6: ingest resumed against the standby extends the recovered
	// version log with exact translation.
	for i := 0; i < 2; i++ {
		if _, err := h.Ingest(batchRows); err != nil {
			t.Fatalf("post-takeover ingest batch %d: %v", i, err)
		}
	}
	finalTarget := ackTarget + 2*batchRows
	waitFor2(t, 60*time.Second, "post-takeover ingest acked", func() bool {
		return rem.Watermark() >= finalTarget
	})
	vdb2 := h.ViewAt(finalTarget)
	singleFinal, err := core.Prepare("progressive", vdb2, s)
	if err != nil {
		t.Fatal(err)
	}
	wantFinal := runQueryToDone(t, singleFinal.Engine, countQ, "single-node final version")
	got = query1("final version on the standby")
	if got == nil || !got.Complete || got.Watermark != finalTarget {
		t.Fatalf("final answer complete=%v watermark=%d, want complete at %d", got != nil && got.Complete, got.Watermark, finalTarget)
	}
	if resultDigest(got) != resultDigest(wantFinal) {
		t.Fatalf("post-takeover merge differs from single-node at version %d:\nmerged %v\nsingle %v",
			finalTarget, got.Bins, wantFinal.Bins)
	}

	// Clean teardown of the survivors.
	sigtermDrain(t, standby, "standby coordinator")
}

// waitFor2 polls cond until it holds or the deadline passes.
func waitFor2(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
