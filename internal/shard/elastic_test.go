package shard_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/shard"
)

// countQuery is the canonical probe: COUNT grouped by carrier.
func countQuery(db *dataset.Database) *query.Query {
	return &query.Query{
		VizName: "v", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// replicatedTier builds a coordinator over parts × reps Faulty-wrapped
// progressive engines and prepares it.
func replicatedTier(t *testing.T, db *dataset.Database, parts, reps int, opts shard.Options) (*shard.Coordinator, [][]*shard.Faulty) {
	t.Helper()
	faulty := make([][]*shard.Faulty, parts)
	sets := make([][]engine.Engine, parts)
	for i := 0; i < parts; i++ {
		for j := 0; j < reps; j++ {
			f := shard.NewFaulty(progressive.New(progressive.Config{}))
			faulty[i] = append(faulty[i], f)
			sets[i] = append(sets[i], f)
		}
	}
	co, err := shard.NewReplicated(opts, sets...)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	if err := co.Prepare(db, engine.Options{Confidence: 0.95, Seed: 5}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return co, faulty
}

// waitDone waits for a handle and returns its final snapshot (which may be
// nil: a refused or unanswerable query).
func waitDone(t *testing.T, h engine.Handle) *query.Result {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("query did not complete")
	}
	return h.Snapshot()
}

// TestFailoverMidStreamFullCoverage: killing the serving replica of a
// partition mid-query must not fail the query or degrade its coverage —
// the coordinator restarts the fan-out leg on the surviving replica and
// the merged answer is bitwise what a healthy tier produces.
func TestFailoverMidStreamFullCoverage(t *testing.T) {
	db := buildDB(t, 8000, 21)
	q := countQuery(db)

	// Reference: the same topology, never killed.
	ref, _ := replicatedTier(t, db, 2, 2, shard.Options{})
	want := waitDone(t, mustStart(t, ref, q))
	if want == nil || !want.Complete {
		t.Fatalf("reference tier returned %+v", want)
	}

	co, faulty := replicatedTier(t, db, 2, 2, shard.Options{})
	h := mustStart(t, co, q)
	// Kill partition 0's preferred replica mid-stream (the query starts on
	// replicas[0] — both are healthy and in sync).
	faulty[0][0].Kill()
	got := waitDone(t, h)
	if got == nil {
		t.Fatalf("failover query returned nil — one dead replica must not fail a query")
	}
	if !got.Complete {
		t.Fatalf("failover result incomplete: %+v", got)
	}
	if got.Coverage == nil || !got.Coverage.Full() {
		t.Fatalf("failover result coverage %+v, want full", got.Coverage)
	}
	if !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("failover bins differ from healthy tier")
	}

	// The killed replica is now marked unhealthy; new queries keep working.
	again := waitDone(t, mustStart(t, co, q))
	if again == nil || !reflect.DeepEqual(again.Bins, want.Bins) {
		t.Fatalf("post-failover query wrong: %+v", again)
	}

	// Revive + health pass: the replica rejoins (no ingest happened, so its
	// watermark still matches the partition target and it re-syncs).
	faulty[0][0].Revive()
	if healthy, total := co.CheckHealth(); healthy != total {
		t.Fatalf("after revive: %d/%d healthy", healthy, total)
	}
	topo := co.Topology()
	for i, pt := range topo.Partitions {
		for _, rt := range pt.Replicas {
			if !rt.Healthy || !rt.Synced {
				t.Fatalf("partition %d replica %s not recovered: %+v", i, rt.Name, rt)
			}
		}
	}
}

func mustStart(t *testing.T, eng engine.Engine, q *query.Query) engine.Handle {
	t.Helper()
	sess := eng.OpenSession()
	t.Cleanup(sess.Close)
	h, err := sess.StartQuery(q)
	if err != nil {
		t.Fatalf("StartQuery: %v", err)
	}
	return h
}

// TestDegradedCoverageProperty is the coordinator property test: for every
// k-subset pattern of dead partitions (k < N), the degraded merge reports
// exactly the population fraction of the live partitions, answers with
// their partitions only, and is never presented as complete. The expected
// fraction comes from the partition row counts themselves.
func TestDegradedCoverageProperty(t *testing.T) {
	const parts = 4
	db := buildDB(t, 6000, 23)
	q := countQuery(db)
	partDBs, err := shard.Partition(db, parts)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := float64(db.Fact.NumRows())

	for mask := 1; mask < 1<<parts-1; mask++ { // at least one dead, at least one alive
		co, faulty := replicatedTier(t, db, parts, 1, shard.Options{})
		liveRows, liveParts := 0.0, 0
		for i := 0; i < parts; i++ {
			if mask&(1<<i) != 0 {
				faulty[i][0].Kill()
			} else {
				liveRows += float64(partDBs[i].Fact.NumRows())
				liveParts++
			}
		}
		res := waitDone(t, mustStart(t, co, q))
		if res == nil {
			t.Fatalf("mask %04b: degraded merge returned nil — must serve the survivors", mask)
		}
		cov := res.Coverage
		if cov == nil || !cov.Degraded || cov.Full() {
			t.Fatalf("mask %04b: coverage %+v, want degraded", mask, cov)
		}
		if cov.PartitionsAnswered != liveParts || cov.PartitionsTotal != parts {
			t.Fatalf("mask %04b: answered %d/%d, want %d/%d",
				mask, cov.PartitionsAnswered, cov.PartitionsTotal, liveParts, parts)
		}
		if want := liveRows / total; math.Abs(cov.PopulationFraction-want) > 1e-12 {
			t.Fatalf("mask %04b: population fraction %v, want exactly %v", mask, cov.PopulationFraction, want)
		}
		if res.Complete {
			t.Fatalf("mask %04b: degraded result claims Complete", mask)
		}
		// The COUNT totals must equal exactly the live partitions' rows: the
		// merge is the survivors' answer, not a rescaled guess.
		var sum float64
		for _, bv := range res.Bins {
			sum += bv.Values[0]
		}
		if sum != liveRows {
			t.Fatalf("mask %04b: degraded count total %v, want %v", mask, sum, liveRows)
		}
	}
}

// TestMinCoverageRefusal: below the configured population floor the
// coordinator refuses (nil) instead of serving; at or above it, it serves
// the annotated degraded answer. Also checks the all-partitions-dead case
// errors at start.
func TestMinCoverageRefusal(t *testing.T) {
	const parts = 3
	db := buildDB(t, 6000, 29)
	q := countQuery(db)

	// Floor high enough that losing any partition refuses (each partition
	// holds roughly a third of the population).
	co, faulty := replicatedTier(t, db, parts, 1, shard.Options{MinCoverage: 0.9})
	faulty[1][0].Kill()
	if res := waitDone(t, mustStart(t, co, q)); res != nil {
		t.Fatalf("coverage below floor served anyway: %+v", res.Coverage)
	}

	// Floor low enough that the same loss serves, annotated.
	co2, faulty2 := replicatedTier(t, db, parts, 1, shard.Options{MinCoverage: 0.5})
	faulty2[1][0].Kill()
	res := waitDone(t, mustStart(t, co2, q))
	if res == nil || res.Coverage == nil || !res.Coverage.Degraded {
		t.Fatalf("coverage above floor refused: %+v", res)
	}

	// Whole tier dead: nothing can start.
	co3, faulty3 := replicatedTier(t, db, parts, 1, shard.Options{})
	for i := range faulty3 {
		faulty3[i][0].Kill()
	}
	sess := co3.OpenSession()
	defer sess.Close()
	if _, err := sess.StartQuery(q); err == nil {
		t.Fatalf("StartQuery succeeded with every partition dead")
	}
}

// TestIngestSkipsDeadReplicaAndResyncGates: a replica that is down while a
// batch routes misses it, turns unsynced, and stays out of the ingest path;
// queries keep full coverage via its peer, and the merged quiesced answer
// still matches a single-node engine over the final table. The stale
// replica reports an honestly old watermark and is not re-marked synced by
// the health loop (its watermark cannot reach the partition target).
func TestIngestSkipsDeadReplicaAndResyncGates(t *testing.T) {
	db := buildDB(t, 8000, 31)
	q := countQuery(db)
	base := int64(db.Fact.NumRows())

	single := progressive.New(progressive.Config{})
	if err := single.Prepare(db, engine.Options{Confidence: 0.95, Seed: 5}); err != nil {
		t.Fatalf("single prepare: %v", err)
	}

	co, faulty := replicatedTier(t, db, 2, 2, shard.Options{})
	faulty[0][1].Kill()
	co.CheckHealth()

	b := ingest.FromTable(db.Fact, 0, 700)
	b.Seq = 1
	if err := co.ApplyBatch(b, nil); err != nil {
		t.Fatalf("ApplyBatch with one dead replica: %v", err)
	}
	tbl, err := ingest.Materialize(db, b)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if err := single.Append(tbl); err != nil {
		t.Fatalf("single append: %v", err)
	}
	grown := base + 700
	if got := co.Watermark(); got != grown {
		t.Fatalf("coordinator watermark %d, want %d", got, grown)
	}

	want := waitDone(t, mustStart(t, single, q))
	got := waitDone(t, mustStart(t, co, q))
	if got == nil || !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("merged bins with one stale replica differ from single node")
	}
	if got.Coverage == nil || !got.Coverage.Full() {
		t.Fatalf("coverage %+v, want full", got.Coverage)
	}
	if got.Watermark != grown {
		t.Fatalf("merged watermark %d, want %d", got.Watermark, grown)
	}

	// Revive: healthy again, but it missed the batch, so it must stay
	// unsynced (its watermark is below the partition target).
	faulty[0][1].Revive()
	co.CheckHealth()
	topo := co.Topology()
	rt := topo.Partitions[0].Replicas[1]
	if !rt.Healthy {
		t.Fatalf("revived replica not healthy: %+v", rt)
	}
	if rt.Synced {
		t.Fatalf("stale replica re-marked synced without catching up: %+v", rt)
	}
}

// TestAntiEntropyDetectsDivergence: identical replicas compare clean;
// feeding one replica different rows behind the coordinator's back (same
// row count, so watermarks agree) must trip the bitwise alarm.
func TestAntiEntropyDetectsDivergence(t *testing.T) {
	db := buildDB(t, 6000, 37)
	q := countQuery(db)
	co, faulty := replicatedTier(t, db, 2, 2, shard.Options{})

	mm, err := co.AntiEntropyCheck(q, 30*time.Second)
	if err != nil {
		t.Fatalf("AntiEntropyCheck: %v", err)
	}
	if len(mm) != 0 {
		t.Fatalf("healthy tier reported divergence: %+v", mm)
	}
	topo := co.Topology()
	if topo.AntiEntropyChecks != 2 || topo.AntiEntropyMismatches != 0 {
		t.Fatalf("counters %d/%d, want 2 checks 0 mismatches",
			topo.AntiEntropyChecks, topo.AntiEntropyMismatches)
	}

	// Diverge partition 0's replicas: same number of extra rows, different
	// contents, appended directly to the inner engines (bypassing routing —
	// exactly the corruption anti-entropy exists to catch).
	parts, err := shard.Partition(db, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for j, span := range [][2]int{{0, 300}, {300, 600}} {
		sub := ingest.FromTable(parts[0].Fact, span[0], span[1])
		tbl, err := ingest.Materialize(parts[0], sub)
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		if err := faulty[0][j].Append(tbl); err != nil {
			t.Fatalf("direct append: %v", err)
		}
	}
	mm, err = co.AntiEntropyCheck(q, 30*time.Second)
	if err != nil {
		t.Fatalf("AntiEntropyCheck: %v", err)
	}
	if len(mm) != 1 || mm[0].Partition != 0 {
		t.Fatalf("divergence not flagged: %+v", mm)
	}
	if co.Topology().AntiEntropyMismatches != 1 {
		t.Fatalf("mismatch counter not bumped")
	}
}

// TestRebalanceHandoff: the checkpoint-codec handoff attaches a new
// in-sync replica mid-ingest; the newcomer then serves bitwise-identical
// fragments (anti-entropy clean against the source) and carries the
// partition alone after the original replica dies.
func TestRebalanceHandoff(t *testing.T) {
	db := buildDB(t, 8000, 41)
	q := countQuery(db)
	co, faulty := replicatedTier(t, db, 2, 1, shard.Options{})

	// Ingest before the handoff so the transferred view has post-base state.
	b := ingest.FromTable(db.Fact, 0, 500)
	b.Seq = 1
	if err := co.ApplyBatch(b, nil); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}

	if err := co.Rebalance(0, progressive.New(progressive.Config{})); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if co.Replicas(0) != 2 {
		t.Fatalf("partition 0 has %d replicas after rebalance, want 2", co.Replicas(0))
	}
	// The newcomer must be bitwise-indistinguishable from the source.
	mm, err := co.AntiEntropyCheck(q, 30*time.Second)
	if err != nil {
		t.Fatalf("AntiEntropyCheck after handoff: %v", err)
	}
	if len(mm) != 0 {
		t.Fatalf("handoff produced divergent replica: %+v", mm)
	}

	// Ingest after the handoff routes to both members.
	b2 := ingest.FromTable(db.Fact, 500, 1200)
	b2.Seq = 2
	if err := co.ApplyBatch(b2, nil); err != nil {
		t.Fatalf("ApplyBatch after handoff: %v", err)
	}

	// Kill the original replica: the rebalanced-in one carries the
	// partition at full coverage and the final version.
	faulty[0][0].Kill()
	res := waitDone(t, mustStart(t, co, q))
	if res == nil || res.Coverage == nil || !res.Coverage.Full() {
		t.Fatalf("rebalanced replica did not carry the partition: %+v", res)
	}
	grown := int64(db.Fact.NumRows()) + 1200
	if res.Watermark != grown || !res.Complete {
		t.Fatalf("post-handoff result watermark=%d complete=%v, want %d/true",
			res.Watermark, res.Complete, grown)
	}

	// RemoveReplica: dropping the dead original leaves the newcomer; the
	// last replica is protected.
	name := co.Topology().Partitions[0].Replicas[0].Name
	if err := co.RemoveReplica(0, name); err != nil {
		t.Fatalf("RemoveReplica: %v", err)
	}
	if co.Replicas(0) != 1 {
		t.Fatalf("partition 0 has %d replicas after remove", co.Replicas(0))
	}
	last := co.Topology().Partitions[0].Replicas[0].Name
	if err := co.RemoveReplica(0, last); err == nil {
		t.Fatalf("removed the last replica of a partition")
	}
}
