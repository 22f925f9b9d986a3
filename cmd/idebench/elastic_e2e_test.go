package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
	"idebench/internal/server"
)

// kill9 SIGKILLs a tier process — no drain, no close handshake — and reaps
// it, simulating a replica host dying.
func kill9(t *testing.T, p *servedProc, who string) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("%s: kill: %v", who, err)
	}
	_ = p.cmd.Wait()
}

// TestElasticFailoverE2E is the elasticity wall: a real 2-partition x
// 2-replica tier of `idebench shard` processes behind one `idebench coord`
// process walks the failure ladder the shard package promises to survive:
//
//  1. the primary replica of partition 0 is SIGKILLed mid-replay — every
//     query must still succeed (mid-stream failover to the sibling) and a
//     follow-up merged COUNT must be complete, fully covered and bitwise
//     equal to a cold single-node prepare;
//  2. the sibling dies too, leaving partition 0 unserved — answers must
//     degrade honestly (coverage block, Complete false, population
//     fraction in (0,1)), never fail and never pose as complete;
//  3. partition 1's replicas die as well, dropping live coverage below the
//     coordinator's -min-coverage floor — queries must now be refused;
//  4. fresh replica processes join via the /rebalance admin endpoint — the
//     tier must recover to full coverage with the merged COUNT again
//     bitwise-identical to the cold single-node prepare.
func TestElasticFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a 5-process replicated serving tier")
	}
	const (
		rows  = 20000
		parts = 2
		users = 4
	)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "idebench.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

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
	coord := startProc(t, bin, "coord",
		"-rows", strconv.Itoa(rows), "-seed", "1",
		"-shards", p0r0.addr+"/"+p0r1.addr+","+p1r0.addr+"/"+p1r1.addr,
		"-min-coverage", "0.25",
		"-health-interval", "100ms",
		"-anti-entropy", "300ms",
		"-addr", "127.0.0.1:0")

	// Versioned health document with the replica topology block.
	chz := getHealthz(t, coord.addr)
	if n := len(partitionWatermarks(chz)); chz.Role != "coord" || n != parts {
		t.Fatalf("coordinator healthz role=%q partitions=%d, want coord/%d", chz.Role, n, parts)
	}
	if chz.SchemaVersion != 5 || server.HealthSchemaVersion != 5 {
		t.Fatalf("healthz schema_version = %d (const %d), want 5", chz.SchemaVersion, server.HealthSchemaVersion)
	}
	if chz.Derived != nil {
		t.Fatalf("coordinator healthz has a derived block: %+v", chz.Derived)
	}
	if chz.Topology == nil || len(chz.Topology.Partitions) != parts {
		t.Fatalf("healthz topology missing or wrong shape: %+v", chz.Topology)
	}
	for i, pt := range chz.Topology.Partitions {
		if len(pt.Replicas) != 2 {
			t.Fatalf("partition %d has %d replicas, want 2", i, len(pt.Replicas))
		}
		for _, r := range pt.Replicas {
			if !r.Healthy || !r.Synced {
				t.Fatalf("partition %d replica %q not healthy+synced at start: %+v", i, r.Name, r)
			}
		}
	}
	if chz.Topology.MinCoverage != 0.25 {
		t.Fatalf("topology min_coverage = %v, want 0.25", chz.Topology.MinCoverage)
	}

	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	countQ := &query.Query{
		VizName: "elastic_count", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	// The bitwise reference: a cold single-node prepare over the same data
	// version the tier serves (no ingest in this wall — replica restarts are
	// deterministic re-derivations, not durable recoveries).
	s := core.DefaultSettings()
	s.DataSize = rows
	s.Seed = 1
	single, err := core.Prepare("progressive", db, s)
	if err != nil {
		t.Fatal(err)
	}
	want := runQueryToDone(t, single.Engine, countQ, "single-node")

	// probe opens a fresh client connection (like `idebench probe`) and
	// returns the final merged snapshot — nil when the tier refuses.
	probe := func(who string) *query.Result {
		t.Helper()
		rem, err := server.NewRemote(coord.addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", who, err)
		}
		defer rem.Close()
		sess := rem.OpenSession()
		defer sess.Close()
		h, err := sess.StartQuery(countQ)
		if err != nil {
			t.Fatalf("%s: start: %v", who, err)
		}
		select {
		case <-h.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: probe did not complete", who)
		}
		return h.Snapshot()
	}

	// All replicas up: full coverage, bitwise.
	if got := probe("all up"); got == nil || !got.Complete || !got.Coverage.Full() || !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("all up: merged COUNT %+v, want complete, full and bitwise the single-node answer", got)
	}

	// Phase 1: SIGKILL the primary replica of partition 0 mid-replay. The
	// replay must finish with zero failed queries — in-flight fragments fail
	// over to the sibling replica.
	rem, err := server.NewRemote(coord.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if err := rem.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	all, err := core.GenerateWorkflows(db, users, 8, 101)
	if err != nil {
		t.Fatal(err)
	}
	flows := core.MixedOnly(all)
	if len(flows) < users {
		t.Fatalf("only %d workflows for %d users", len(flows), users)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(1500 * time.Millisecond)
		kill9(t, p0r0, "partition 0 primary")
	}()
	res, err := driver.Replay(rem, groundtruth.New(db), driver.Config{
		TimeRequirement: 250 * time.Millisecond,
		ThinkTime:       time.Millisecond,
		DataSizeLabel:   core.SizeLabel(rows),
		Users:           users,
		ThinkJitter:     driver.DefaultThinkJitter,
		Seed:            1,
	}, flows[:users])
	if err != nil {
		t.Fatalf("replay across replica death failed: %v\ncoord output:\n%s", err, coord.output())
	}
	<-killed
	if len(res.Records) == 0 {
		t.Fatal("replay recorded no queries")
	}

	// Full coverage survives one dead replica, bitwise.
	got := probe("one replica dead")
	if got == nil {
		t.Fatalf("probe refused with a healthy sibling up\ncoord output:\n%s", coord.output())
	}
	if !got.Complete || (got.Coverage != nil && !got.Coverage.Full()) {
		t.Fatalf("one replica dead: result complete=%v coverage=%+v, want complete full", got.Complete, got.Coverage)
	}
	if got.Watermark != rows {
		t.Fatalf("one replica dead: watermark %d, want %d", got.Watermark, rows)
	}
	if !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("one replica dead: merged COUNT differs from single-node:\nmerged %v\nsingle %v", got.Bins, want.Bins)
	}
	// The health loop must have noticed the corpse.
	waitTopology(t, coord.addr, func(topo *engine.Topology) bool {
		healthy := 0
		for _, r := range topo.Partitions[0].Replicas {
			if r.Healthy {
				healthy++
			}
		}
		return healthy == 1
	}, "partition 0 down to one healthy replica")

	// The anti-entropy loop ran against the start-of-test replica pairs and
	// found them bitwise identical.
	chz = getHealthz(t, coord.addr)
	if chz.Topology.AntiEntropyChecks == 0 {
		t.Fatalf("anti-entropy loop never completed a check: %+v", chz.Topology)
	}
	if chz.Topology.AntiEntropyMismatches != 0 {
		t.Fatalf("anti-entropy reported %d bitwise mismatches between replicas", chz.Topology.AntiEntropyMismatches)
	}

	// Phase 2: kill the sibling too. Partition 0 is now unserved; answers
	// degrade to partition 1's population, annotated, never failed.
	kill9(t, p0r1, "partition 0 sibling")
	waitTopology(t, coord.addr, func(topo *engine.Topology) bool {
		for _, r := range topo.Partitions[0].Replicas {
			if r.Healthy {
				return false
			}
		}
		return true
	}, "partition 0 fully dead")
	got = probe("partition dead")
	if got == nil {
		t.Fatalf("degraded answer was refused above the coverage floor\ncoord output:\n%s", coord.output())
	}
	cov := got.Coverage
	if cov == nil || !cov.Degraded || cov.PartitionsAnswered != 1 || cov.PartitionsTotal != parts {
		t.Fatalf("partition dead: coverage %+v, want 1/%d degraded", cov, parts)
	}
	if cov.PopulationFraction <= 0 || cov.PopulationFraction >= 1 || cov.PopulationFraction < 0.25 {
		t.Fatalf("partition dead: population fraction %v outside [0.25, 1)", cov.PopulationFraction)
	}
	if got.Complete {
		t.Fatal("degraded merge claims Complete — a partial population must never pose as a full answer")
	}

	// Phase 3: kill partition 1's replicas as well. Live coverage drops to
	// zero, below the 0.25 floor: the tier must refuse, not fabricate.
	kill9(t, p1r0, "partition 1 primary")
	kill9(t, p1r1, "partition 1 sibling")
	waitTopology(t, coord.addr, func(topo *engine.Topology) bool {
		for _, pt := range topo.Partitions {
			for _, r := range pt.Replicas {
				if r.Healthy {
					return false
				}
			}
		}
		return true
	}, "whole tier dead")
	if res := probe("below coverage floor"); res != nil {
		t.Fatalf("tier with zero live partitions served a result: %+v (coverage %+v)", res, res.Coverage)
	}

	// Phase 4: recovery. Fresh replica processes (same deterministic
	// partitions, new ports) join through the /rebalance admin endpoint via
	// the rebalance subcommand, and the health loop promotes them.
	n0 := startReplica(0, true)
	n1 := startReplica(1, true)
	for part, addr := range map[int]string{0: n0.addr, 1: n1.addr} {
		out, err := exec.Command(bin, "rebalance",
			"-addr", coord.addr, "-op", "add",
			"-partition", strconv.Itoa(part), "-shard-addr", addr).CombinedOutput()
		if err != nil {
			t.Fatalf("rebalance add partition %d: %v\n%s", part, err, out)
		}
	}
	waitTopology(t, coord.addr, func(topo *engine.Topology) bool {
		for _, pt := range topo.Partitions {
			promoted := false
			for _, r := range pt.Replicas {
				if r.Healthy && r.Synced {
					promoted = true
				}
			}
			if !promoted {
				return false
			}
		}
		return true
	}, "new replicas promoted")
	got = probe("recovered")
	if got == nil {
		t.Fatalf("recovered tier refused a query\ncoord output:\n%s", coord.output())
	}
	if !got.Complete || (got.Coverage != nil && !got.Coverage.Full()) {
		t.Fatalf("recovered: result complete=%v coverage=%+v, want complete full", got.Complete, got.Coverage)
	}
	if !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("recovered: merged COUNT differs from single-node:\nmerged %v\nsingle %v", got.Bins, want.Bins)
	}

	// Shrink: detach one corpse by its topology name and observe the set
	// shrink — the remove path of the admin endpoint.
	chz = getHealthz(t, coord.addr)
	deadName := ""
	for _, r := range chz.Topology.Partitions[0].Replicas {
		if !r.Healthy {
			deadName = r.Name
			break
		}
	}
	if deadName == "" {
		t.Fatal("no dead replica left in partition 0 topology")
	}
	before := len(chz.Topology.Partitions[0].Replicas)
	out, err := exec.Command(bin, "rebalance",
		"-addr", coord.addr, "-op", "remove",
		"-partition", "0", "-name", deadName).CombinedOutput()
	if err != nil {
		t.Fatalf("rebalance remove %q: %v\n%s", deadName, err, out)
	}
	chz = getHealthz(t, coord.addr)
	if len(chz.Topology.Partitions[0].Replicas) != before-1 {
		t.Fatalf("partition 0 still has %d replicas after removing %q (had %d)",
			len(chz.Topology.Partitions[0].Replicas), deadName, before)
	}
	if chz.Topology.AntiEntropyMismatches != 0 {
		t.Fatalf("anti-entropy reported %d bitwise mismatches by the end of the ladder", chz.Topology.AntiEntropyMismatches)
	}

	// Clean teardown of what is still alive.
	sigtermDrain(t, coord, "coordinator")
	for i, sp := range []*servedProc{n0, n1} {
		sigtermDrain(t, sp, fmt.Sprintf("replacement replica %d", i))
	}
}

// waitTopology polls the coordinator's /healthz topology until cond holds.
func waitTopology(t *testing.T, addr string, cond func(*engine.Topology) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		hz := getHealthz(t, addr)
		if hz.Topology != nil && cond(hz.Topology) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("topology never reached %q: %+v", what, hz.Topology)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
