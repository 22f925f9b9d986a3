package experiments

import (
	"fmt"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/report"
	"idebench/internal/shard"
	"idebench/internal/workflow"
)

// DefaultUserCounts is the user-scalability axis: how many concurrent
// simulated analysts share one prepared engine.
var DefaultUserCounts = []int{1, 2, 4, 8}

// IngestEvery is how many workflow interactions separate consecutive
// ingest events in an ingest-aware replay.
const IngestEvery = 3

// ReplayRow is one measured point of a replay sweep: one multi-user replay
// against one topology. The embedded report row carries every measurement
// the sweeps share (throughput, latency percentiles, staleness, ingest
// rate); the fields below are what a particular sweep adds.
type ReplayRow struct {
	report.IngestScaling

	// Topology labels what was replayed against: an engine registry name,
	// "single"/"shardN" in the shard sweep, the failure scenario in the
	// elastic sweep. Partitions, ReplicasPerPartition and DeadReplicas
	// describe a coordinator tier and are all 0 for a plain engine.
	Topology             string
	Partitions           int
	ReplicasPerPartition int
	DeadReplicas         int
	// PrepareMS covers partitioning plus preparing every backend.
	PrepareMS float64

	// Coverage of the post-replay probe COUNT: how much of the population
	// the (merged) answer saw. A full-coverage point has PartitionsAnswered
	// == PartitionsTotal == Partitions and fraction 1.
	query.Coverage
	// BitwiseOK is the quiesce gate of an ingest-aware point: after every
	// batch was absorbed, the probe COUNT was bitwise identical to a cold
	// exact scan over the final table (sampling engines, whose complete
	// answer is an estimate by design, pass via the total-within-tolerance
	// contract instead). A point that misses the gate fails its sweep, so a
	// returned row says false only when it replayed without ingest.
	BitwiseOK bool

	// SequentialMS is the wall-clock of replaying the same workflows
	// one-by-one on a single session and SpeedupVsSequential that over the
	// concurrent wall-clock (user sweep only). On a shared-scan engine
	// concurrent users overlap both their think times and their memory
	// sweeps, so the ratio should exceed 1 well before perfect scaling.
	SequentialMS        float64
	SpeedupVsSequential float64
}

// topology is one way of standing up the engine a replay runs against.
type topology struct {
	label string
	// partitions × replicas with dead replicas killed before the replay,
	// leaving deadPartitions partitions with no live replica; all zero for a
	// plain engine.
	partitions, replicas, dead, deadPartitions int
	// prepare returns a prepared engine, how long preparing took, and a
	// stop function releasing whatever runs in the background.
	prepare func() (eng engine.Engine, prep time.Duration, stop func(), err error)
}

// engineTopology prepares a fresh registry engine per point: live ingestion
// mutates prepared state, so ingest-aware points never share one.
func engineTopology(label, name string, db *dataset.Database, cfg Config) topology {
	return topology{label: label, prepare: func() (engine.Engine, time.Duration, func(), error) {
		p, err := core.Prepare(name, db, engineSettings(cfg, cfg.Rows))
		if err != nil {
			return nil, 0, nil, err
		}
		return p.Engine, p.PrepTime, func() {}, nil
	}}
}

// tierTopology prepares an in-process coordinator over parts hash
// partitions of reps progressive replicas each, kills the listed
// (partition, replica ordinal) pairs, and runs the health loop the serving
// tier runs: its first pass marks the kills before the replay starts, later
// passes keep the flags honest. It exercises exactly the partition / route /
// merge / min-watermark / failover machinery the multi-process tier serves,
// minus the wire.
func tierTopology(label string, parts, reps int, kills [][2]int, db *dataset.Database, cfg Config) topology {
	killed := make([]int, parts)
	deadParts := 0
	for _, k := range kills {
		if killed[k[0]]++; killed[k[0]] == reps {
			deadParts++
		}
	}
	return topology{label: label, partitions: parts, replicas: reps, dead: len(kills), deadPartitions: deadParts,
		prepare: func() (engine.Engine, time.Duration, func(), error) {
			faults := make([][]*shard.Faulty, parts)
			sets := make([][]engine.Engine, parts)
			for p := range sets {
				faults[p] = make([]*shard.Faulty, reps)
				sets[p] = make([]engine.Engine, reps)
				for r := range sets[p] {
					faults[p][r] = shard.NewFaulty(progressive.New(progressive.Config{}))
					sets[p][r] = faults[p][r]
				}
			}
			co, err := shard.NewReplicated(shard.Options{}, sets...)
			if err != nil {
				return nil, 0, nil, err
			}
			s := engineSettings(cfg, cfg.Rows)
			start := time.Now()
			if err := co.Prepare(db, engine.Options{Confidence: s.Confidence, Seed: s.Seed}); err != nil {
				return nil, 0, nil, err
			}
			prep := time.Since(start)
			for _, k := range kills {
				faults[k[0]][k[1]].Kill()
			}
			co.CheckHealth()
			return co, prep, co.StartHealthLoop(100 * time.Millisecond), nil
		}}
}

// replayConfig is the driver configuration every replay sweep uses: the
// middle time requirement of the configured sweep.
func replayConfig(cfg Config) driver.Config {
	return driver.Config{
		TimeRequirement: cfg.TRs[len(cfg.TRs)/2],
		ThinkTime:       cfg.ThinkTime,
		DataSizeLabel:   core.SizeLabel(cfg.Rows),
	}
}

// replaySetup builds what every point of a sweep shares: the dataset, a
// ground-truth cache over it, and one mixed workflow per user with distinct
// seeds — each simulated analyst explores differently, like the paper's
// per-workflow variation.
func replaySetup(cfg Config, users int, flowSeed int64) (*dataset.Database, *groundtruth.Cache, []*workflow.Workflow, error) {
	if users < 1 {
		return nil, nil, nil, fmt.Errorf("experiments: a replay sweep needs at least one user")
	}
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	gen, err := workflow.NewGenerator(db.Fact)
	if err != nil {
		return nil, nil, nil, err
	}
	flows := make([]*workflow.Workflow, users)
	for i := range flows {
		flows[i], err = gen.Generate(workflow.GenConfig{
			Type: workflow.Mixed, Interactions: cfg.Interactions,
			Seed: cfg.Seed + flowSeed + int64(i), Name: fmt.Sprintf("mixed-u%02d", i),
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return db, groundtruth.New(db), flows, nil
}

// replayPoint measures one point: it prepares the topology, replays one
// flow per concurrent user (jittered like real analysts) and, with
// withIngest, an append-only batch every IngestEvery interactions — each
// result evaluated against the ground truth of the data version its
// watermark names — then runs one probe COUNT to completion. The probe's
// coverage must be what the topology's dead replicas predict, and an
// ingest-aware point must pass the quiesce gate: the incremental path may
// not drift from a cold rebuild by even one row.
func replayPoint(cfg Config, db *dataset.Database, gt *groundtruth.Cache, t topology,
	flows []*workflow.Workflow, withIngest bool) (ReplayRow, error) {
	row := ReplayRow{Topology: t.label, Partitions: t.partitions,
		ReplicasPerPartition: t.replicas, DeadReplicas: t.dead}
	eng, prep, stop, err := t.prepare()
	if err != nil {
		return row, fmt.Errorf("experiments: %s prepare: %w", t.label, err)
	}
	defer stop()
	row.PrepareMS = durationMS(prep)

	dcfg := replayConfig(cfg)
	dcfg.Users, dcfg.ThinkJitter, dcfg.Seed = len(flows), driver.DefaultThinkJitter, cfg.Seed
	var truth driver.Truth = gt
	var app engine.Appender
	var h *ingest.Harness
	if withIngest {
		var ok bool
		if app, ok = eng.(engine.Appender); !ok {
			return row, fmt.Errorf("experiments: %s does not support ingestion", t.label)
		}
		src, err := ingest.NewSource(2000, cfg.Seed+23)
		if err != nil {
			return row, err
		}
		h = ingest.NewHarness(db, src, ingest.EngineSink{A: app})
		dcfg.IngestSink, truth = h, h
		batchRows := max(cfg.Rows/100, 200)
		interleaved := make([]*workflow.Workflow, len(flows))
		for i, w := range flows {
			interleaved[i] = workflow.InterleaveIngest(w, IngestEvery, batchRows)
		}
		flows = interleaved
	}
	res, err := driver.Replay(eng, truth, dcfg, flows)
	if err != nil {
		return row, fmt.Errorf("experiments: %s users=%d replay: %w", t.label, len(flows), err)
	}
	// One engine, one user count: the aggregation collapses to one group.
	groups := report.SummarizeIngest(res.Records)
	if len(groups) != 1 {
		return row, fmt.Errorf("experiments: %s users=%d: replay produced %d (driver, users) groups, want 1",
			t.label, len(flows), len(groups))
	}
	row.IngestScaling = groups[0]

	q, probe, err := countToDone(eng, db.Fact.Name)
	if err != nil {
		return row, fmt.Errorf("experiments: %s probe: %w", t.label, err)
	}
	row.Coverage = query.Coverage{PartitionsAnswered: t.partitions, PartitionsTotal: t.partitions, PopulationFraction: 1}
	if cov := probe.Coverage; !cov.Full() {
		row.Coverage = *cov
	}
	// The injected failure predicts the coverage exactly: an answer degrades
	// by the partitions left with no live replica, and by nothing else.
	wantAnswered := t.partitions - t.deadPartitions
	if row.PartitionsAnswered != wantAnswered || row.Degraded != (wantAnswered < t.partitions) {
		return row, fmt.Errorf("experiments: %s answered %d/%d partitions (degraded=%v), want %d/%d",
			t.label, row.PartitionsAnswered, row.PartitionsTotal, row.Degraded, wantAnswered, t.partitions)
	}
	if withIngest {
		row.SetIngested(h.IngestedRows())
		if err := checkQuiesced(q, probe, app, h); err != nil {
			return row, fmt.Errorf("experiments: %s users=%d quiesce: %w", t.label, len(flows), err)
		}
		row.BitwiseOK = true
	}
	return row, nil
}

// countToDone runs one COUNT-by-carrier query to completion on a fresh
// session and returns it with its final result, whose Coverage block (nil
// when full) states how much of the population answered.
func countToDone(eng engine.Engine, table string) (*query.Query, *query.Result, error) {
	q := &query.Query{
		VizName: "probe_count", Table: table,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	sess := eng.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		return nil, nil, err
	}
	select {
	case <-hdl.Done():
	case <-time.After(60 * time.Second):
		return nil, nil, fmt.Errorf("probe query did not complete")
	}
	res := hdl.Snapshot()
	if res == nil {
		return nil, nil, fmt.Errorf("probe query was refused (nil snapshot)")
	}
	return q, res, nil
}

// checkQuiesced verifies the incremental path against a cold rebuild: the
// engine's watermark must equal the harness's (every batch absorbed), and
// the probe COUNT res must match the final table's exact scan — bitwise
// when the engine answers exactly (counts are integers, so any lost or
// double-folded row shows), or total-within-tolerance for sampling engines
// whose complete answer is an estimate by design.
func checkQuiesced(q *query.Query, res *query.Result, app engine.Appender, h *ingest.Harness) error {
	want := h.Watermark()
	if w := app.Watermark(); w != want {
		return fmt.Errorf("engine watermark %d, harness %d", w, want)
	}
	if res.Watermark != want {
		return fmt.Errorf("probe result watermark %d, want %d", res.Watermark, want)
	}
	gt, err := h.TruthAt(q, want)
	if err != nil {
		return err
	}
	if !res.Complete {
		// A sampling engine's finished answer is an estimate (Complete stays
		// false by design): hold it to the stratified-sampling contract —
		// the scaled total tracks the grown population.
		var gtTotal, resTotal float64
		for _, bv := range gt.Bins {
			gtTotal += bv.Values[0]
		}
		for _, bv := range res.Bins {
			resTotal += bv.Values[0]
		}
		if diff := resTotal - gtTotal; diff < -0.15*gtTotal || diff > 0.15*gtTotal {
			return fmt.Errorf("probe estimate total %v, want within 15%% of %v", resTotal, gtTotal)
		}
		return nil
	}
	if len(res.Bins) != len(gt.Bins) {
		return fmt.Errorf("probe count: %d bins, want %d", len(res.Bins), len(gt.Bins))
	}
	for k, wv := range gt.Bins {
		gv, ok := res.Bins[k]
		if !ok || gv.Values[0] != wv.Values[0] {
			return fmt.Errorf("probe count bin %v: got %v, want exactly %v", k, gv, wv.Values[0])
		}
	}
	return nil
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// UserSweep measures multi-user scaling (the ROADMAP's "serve many users"
// axis) with the default user counts — `idebench exp -name users`.
func UserSweep(cfg Config) ([]ReplayRow, error) {
	return UserSweepUsers(cfg, DefaultUserCounts)
}

// UserSweepUsers replays, for each engine and each user count U, U mixed
// workflows as U concurrent simulated users over one prepared engine, and
// the same U workflows sequentially on one session as the baseline. Engines
// default to progressive (shared scans: users share scan workers) vs
// exactdb (independent parallel scans: users compete), the contrast the
// shared-scan scheduler was built for.
func UserSweepUsers(cfg Config, userCounts []int) ([]ReplayRow, error) {
	engines := contrastEngines(cfg)
	cfg = cfg.withDefaults()
	db, gt, flows, err := replaySetup(cfg, maxOf(userCounts), 9000)
	if err != nil {
		return nil, err
	}
	var out []ReplayRow
	// SpeedupVs1 is derived per Engine.Name() — the label records carry —
	// not per registry name (progressive-spec reports as "progressive"), so
	// two engines sharing one would ratio against each other's baseline.
	seenDriver := map[string]string{} // Engine.Name() -> registry name
	for _, name := range engines {
		// Without ingest nothing mutates prepared state: one engine serves
		// every user count, and the sequential baseline after each.
		p, err := core.Prepare(name, db, engineSettings(cfg, cfg.Rows))
		if err != nil {
			return nil, err
		}
		if prev, ok := seenDriver[p.Engine.Name()]; ok {
			return nil, fmt.Errorf("experiments: engines %q and %q both report driver name %q; sweep them separately",
				prev, name, p.Engine.Name())
		}
		seenDriver[p.Engine.Name()] = name
		shared := topology{label: name, prepare: func() (engine.Engine, time.Duration, func(), error) {
			return p.Engine, p.PrepTime, func() {}, nil
		}}
		for _, users := range userCounts {
			row, err := replayPoint(cfg, db, gt, shared, flows[:users], false)
			if err != nil {
				return nil, err
			}
			// The baseline: the same flows, one after another on one
			// session. Its timed window, like the concurrent one, holds
			// engine work and think time only; scoring comes after both.
			seq, err := driver.Replay(p.Engine, gt, replayConfig(cfg), flows[:users])
			if err != nil {
				return nil, fmt.Errorf("experiments: %s users=%d sequential: %w", name, users, err)
			}
			row.SequentialMS = durationMS(seq.WallClock)
			if row.WallClockMS > 0 {
				row.SpeedupVsSequential = row.SequentialMS / row.WallClockMS
			}
			out = append(out, row)
		}
	}
	scal := make([]report.UserScaling, len(out))
	for i, r := range out {
		scal[i] = r.UserScaling
	}
	report.FillSpeedupVs1(scal)
	for i := range out {
		out[i].SpeedupVs1 = scal[i].SpeedupVs1
	}

	fmt.Fprintln(cfg.Out, "=== User scalability: concurrent analysts per engine (mixed workload) ===")
	if err := report.RenderUserSweep(cfg.Out, scal); err != nil {
		return nil, err
	}
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-12s users=%d concurrent=%.1fms sequential=%.1fms speedup_vs_sequential=%.2fx\n",
			r.Driver, r.Users, r.WallClockMS, r.SequentialMS, r.SpeedupVsSequential)
	}
	return out, nil
}

// IngestSweep measures ingestion-under-load scaling with the default user
// counts — `idebench exp -name ingest`.
func IngestSweep(cfg Config) ([]ReplayRow, error) {
	return IngestSweepUsers(cfg, DefaultUserCounts)
}

// IngestSweepUsers replays, for each engine and user count U, U
// ingest-interleaved mixed workflows as U concurrent users over a freshly
// prepared engine, and fails unless every point passes the quiesce gate.
func IngestSweepUsers(cfg Config, userCounts []int) ([]ReplayRow, error) {
	engines := contrastEngines(cfg)
	cfg = cfg.withDefaults()
	db, gt, flows, err := replaySetup(cfg, maxOf(userCounts), 17000)
	if err != nil {
		return nil, err
	}
	var out []ReplayRow
	for _, name := range engines {
		for _, users := range userCounts {
			row, err := replayPoint(cfg, db, gt, engineTopology(name, name, db, cfg), flows[:users], true)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}

	fmt.Fprintln(cfg.Out, "=== Live ingestion: append-only batches during concurrent replay (mixed workload) ===")
	scal := make([]report.IngestScaling, len(out))
	for i, r := range out {
		scal[i] = r.IngestScaling
	}
	if err := report.RenderIngestSweep(cfg.Out, scal); err != nil {
		return nil, err
	}
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-12s users=%d wall=%.1fms queries/s=%.1f ingest_rows/s=%.0f quiesce_bitwise=%v\n",
			r.Driver, r.Users, r.WallClockMS, r.QueriesPerSec, r.IngestRowsPerSec, r.BitwiseOK)
	}
	return out, nil
}

// DefaultShardCounts is the scatter-gather scaling axis: how many shard
// backends the coordinator merges. 1 measures pure coordinator overhead
// (fan-out, partial folding, watermark translation) against the single-node
// baseline.
var DefaultShardCounts = []int{1, 2, 4}

// ShardSweep measures the scatter-gather tier against single-node
// execution with the default shard counts and a fixed 4-user ingest-aware
// replay — `idebench exp -name shards`.
func ShardSweep(cfg Config) ([]ReplayRow, error) {
	return ShardSweepCounts(cfg, DefaultShardCounts, 4)
}

// ShardSweepCounts replays the same ingest-interleaved multi-user workload
// over a single-node progressive engine ("single") and an in-process
// coordinator over N progressive shards ("shardN") for each N, all against
// the same generated dataset, every point gated quiesce-bitwise.
func ShardSweepCounts(cfg Config, shardCounts []int, users int) ([]ReplayRow, error) {
	cfg = cfg.withDefaults()
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("experiments: empty shard-count sweep")
	}
	db, gt, flows, err := replaySetup(cfg, users, 29000)
	if err != nil {
		return nil, err
	}
	topos := []topology{engineTopology("single", "progressive", db, cfg)}
	for _, n := range shardCounts {
		topos = append(topos, tierTopology(fmt.Sprintf("shard%d", n), n, 1, nil, db, cfg))
	}
	return shardSweep(cfg, db, gt, flows, topos)
}

func shardSweep(cfg Config, db *dataset.Database, gt *groundtruth.Cache, flows []*workflow.Workflow, topos []topology) ([]ReplayRow, error) {
	var out []ReplayRow
	for _, t := range topos {
		row, err := replayPoint(cfg, db, gt, t, flows, true)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	fmt.Fprintln(cfg.Out, "=== Scatter-gather: coordinator over N shards vs single node (ingest-aware mixed workload) ===")
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-8s users=%d prepare=%.1fms wall=%.1fms queries/s=%.1f p95=%.2fms ingested=%d quiesce_bitwise=%v\n",
			r.Topology, r.Users, r.PrepareMS, r.WallClockMS, r.QueriesPerSec, r.Latency.P95, r.IngestedRows, r.BitwiseOK)
	}
	return out, nil
}

// ElasticSweep runs the default elasticity ladder — 2 partitions × 2
// replicas, 4 users — `idebench exp -name elastic`.
func ElasticSweep(cfg Config) ([]ReplayRow, error) {
	return ElasticSweepSpec(cfg, 2, 2, 4)
}

// ElasticSweepSpec replays the same multi-user workload against a fresh
// parts×reps replicated coordinator per failure scenario: "all_up",
// "replica_dead" (one replica of one partition killed; its sibling covers)
// and "partition_dead" (every replica of one partition killed; answers
// degrade to the surviving partitions' population). It errors if any replay
// fails (a dead replica must cost latency, never a failed query), if a
// scenario's post-replay coverage differs from what the injected failure
// predicts, or if a fully-covered point misses the quiesce gate. The
// dead-partition scenario replays without ingest — its partition cannot
// absorb batches — and is honest about missing rows via the coverage block,
// not bitwise-complete.
func ElasticSweepSpec(cfg Config, parts, reps, users int) ([]ReplayRow, error) {
	cfg = cfg.withDefaults()
	if parts < 2 || reps < 2 {
		return nil, fmt.Errorf("experiments: elastic sweep needs >=2 partitions and >=2 replicas (got %d x %d)", parts, reps)
	}
	db, gt, flows, err := replaySetup(cfg, users, 31000)
	if err != nil {
		return nil, err
	}
	partDead := make([][2]int, reps)
	for r := range partDead {
		partDead[r] = [2]int{0, r}
	}
	var out []ReplayRow
	for _, sc := range []struct {
		name   string
		kills  [][2]int
		ingest bool
	}{
		{name: "all_up", ingest: true},
		{name: "replica_dead", kills: [][2]int{{0, 1}}, ingest: true},
		{name: "partition_dead", kills: partDead},
	} {
		row, err := replayPoint(cfg, db, gt, tierTopology(sc.name, parts, reps, sc.kills, db, cfg), flows, sc.ingest)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}

	fmt.Fprintf(cfg.Out, "=== Elasticity: %dx%d replicated coordinator under injected failures ===\n", parts, reps)
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-15s dead=%d queries=%d p95=%.2fms coverage=%d/%d (%.2f) degraded=%v ingested=%d quiesce_bitwise=%v\n",
			r.Topology, r.DeadReplicas, r.Queries, r.Latency.P95, r.PartitionsAnswered, r.PartitionsTotal,
			r.PopulationFraction, r.Degraded, r.IngestedRows, r.BitwiseOK)
	}
	return out, nil
}

// contrastEngines is the engine axis of the user and ingest sweeps. It must
// read cfg before withDefaults fills the standard four: with no explicit
// list the sweeps contrast the shared-scan engine with the independent-scan
// one instead of running all of them.
func contrastEngines(cfg Config) []string {
	if len(cfg.Engines) > 0 {
		return cfg.Engines
	}
	return []string{"progressive", "exactdb"}
}

func maxOf(counts []int) int {
	m := 0
	for _, c := range counts {
		m = max(m, c)
	}
	return m
}
