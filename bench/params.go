package main

import "time"

// What every run is driven with, at either scale. The values were calibrated
// on the two-core reference box (see README.md, "How the sizes were chosen");
// changing one changes what every recorded number means.
const (
	// analysts is the closed-loop analyst count (and the served connection
	// count): the box has two cores, so two load-issuing threads.
	analysts = 2
	// interactions is the length of one seeded mixed workflow. With 64
	// workflows of 25 interactions the median final moved 13% between seeds,
	// with ~220 of 10 about 1%.
	interactions = 10

	// The time requirement: when the analyst's screen is sampled. The
	// paper's 1 s and 10 s requirements at 1/250. Over the wire a 2-D result
	// with thousands of bins takes 15-45 ms on an idle server, so at 12 ms
	// served and sharded could not run without missed queries.
	trInproc  = 4 * time.Millisecond
	trIngest  = 4 * time.Millisecond
	trServed  = 40 * time.Millisecond
	trSharded = 40 * time.Millisecond

	// thinkTime is the pause between a closed-loop analyst's interactions:
	// the paper's 1 s stress-test think time at 1/250. explore-served's
	// analysts do not think: a served query takes 0.6 ms, so behind any think
	// time the loop's rate would be the think time's and not the server's.
	thinkTime = 4 * time.Millisecond

	// explore-served spends closedShare of its window in the closed loop (its
	// bounded metrics are read there) and the rest walking ladder. The closed
	// loop repeats within 5% on this box, the open loop's latencies do not.
	closedShare = 0.55

	// batchRate is how many batches ingest-mixed's writer offers a second:
	// 1050 a window, so the ack p99 has ten samples beyond it.
	batchRate = 70
)

// ladder is explore-served's ascending offered-rate ladder in interactions/s,
// walked rung by equal rung: 50-420 arrivals a rung, bracketing the knee
// (380-500/s).
var ladder = []float64{60, 100, 130, 170, 220, 290, 380, 500}

// params holds the sizes that the smoke test shrinks.
type params struct {
	// Rows of the denormalised flights table per workload.
	inprocRows, servedRows, shardedRows, ingestRows int
	// Each analyst cycles through flowsPerScript seeded mixed workflows.
	flowsPerScript int
	// ingest-mixed: rows per batch, and the durable store's background
	// checkpoint policy.
	batchRows    int
	ckptInterval time.Duration
	ckptWALBytes int64
	// setupRepeats is how many times an untraced run sets the system up;
	// setup_s is the median.
	setupRepeats int
	// checkSample is how many finals per run are compared against a cold
	// scan; qualitySample how many time-requirement snapshots a traced run
	// scores against ground truth.
	checkSample, qualitySample int
	// layerSample is how many distinct queries, results and batches the
	// direct per-layer timings of a traced run go over.
	layerSample int
}

var fullScale = params{
	// ~0.63 of the scan is done at TR 4 ms, so the quality metrics are not
	// saturated; at 4M rows three set-ups a run would take 17 s.
	inprocRows: 2_000_000,
	// Small enough that server carries more self time than the ride on the
	// shared scan; at 250k rows the scan did.
	servedRows: 30_000,
	// Small enough that server + shard carry more self time than the
	// shards' scans; at 1M rows four scan workers on two cores did.
	shardedRows: 250_000,
	// 80 MB of table: each checkpoint rewrites it in ~1.3 s.
	ingestRows: 1_000_000,

	flowsPerScript: 128,

	// The table grows by half in a window; 8 MiB is the CLI's WAL limit, and
	// at a 4 s poll three checkpoints fall in the window and cover a quarter
	// of it.
	batchRows:    500,
	ckptInterval: 4 * time.Second, ckptWALBytes: 8 << 20,

	setupRepeats: 3,
	checkSample:  96, qualitySample: 300, layerSample: 48,
}

// tinyScale is for the smoke test: same code paths, seconds of wall clock.
var tinyScale = params{
	inprocRows: 30_000, servedRows: 20_000, shardedRows: 30_000, ingestRows: 30_000,
	flowsPerScript: 3,
	batchRows:      100,
	ckptInterval:   100 * time.Millisecond, ckptWALBytes: 64 << 10,
	setupRepeats: 1,
	checkSample:  16, qualitySample: 24, layerSample: 6,
}

// Seeds named for the record: defaultSeed is what the numbers in README.md
// were taken with; heldOutSeed is never used while a change is written, so a
// claim can be checked on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)
