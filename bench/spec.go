package main

import (
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

// metric is one named number of the benchmark, as BENCHMARK.json lists it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlInproc, "2M-row table in process, 2 closed-loop analysts, TR 4 ms: the scan is nearly all the work, so engine kernels, sharedscan scheduling and allocation show; server, shard and durable are bypassed."},
	{wlServed, "30k rows behind server.New on loopback, 2 connections, TR 40 ms; closed loop with no think time, then an open-loop rate ladder: admission, polling, JSON and WebSocket framing cost most, kernels none."},
	{wlSharded, "250k rows in 2 hash partitions served as shards, in-process coordinator, closed loop, TR 40 ms: prices partial encode, wire, fold, merged render. One process, two cores: not evidence about scale-out."},
	{wlIngest, "1M-row table with a durable store (fsync per batch, background checkpoints), 70 batches/s of 500 rows beside one closed-loop analyst, then recovery: WAL, copy-on-write append and Extend beside reads."},
}

// runSeconds is how long one run's window is.
const runSeconds = 15

// endToEnd are the metrics an analyst (or an operator) of the system would
// notice, measured with tracing off on every workload; a later change is
// rejected if one of them worsens by more than its bound. The bounds are
// twice the widest ten-seed interquartile spread measured on the reference
// commit (README.md, "Bounds"), and at least a tenth.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"final_ms_p50", "ms", "lower", 0.25},
	{"progress_at_tr", "ratio", "higher", 0.15},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"mean_rss_mb", "MB", "lower", 0.25},
}

// untracedExtras are measured with tracing off too and printed by -all, but
// exist on some workloads only (or are zero when all is well), so the
// accepting driver — which wants every bounded metric from every workload,
// never zero — sees them in the per-layer section, from the traced run.
var untracedExtras = []string{
	"final_ms_p99", "peak_rss_mb", "tr_miss_share", "ttfs_ms_p50", "ttfs_ms_p99", "max_rate_ok",
	"ingest_ack_ms_p50", "ingest_ack_ms_p99", "recover_s",
}

// perLayer are the numbers of single layers, from the traced run. A metric
// a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	m := []metric{
		// The workload-specific end-to-end metrics (see untracedExtras).
		{Name: "final_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "tr_miss_share", Unit: "ratio", Better: "lower"},
		{Name: "mre_at_tr_p50", Unit: "ratio", Better: "lower"},
		{Name: "missing_bins_at_tr", Unit: "ratio", Better: "lower"},
		{Name: "ttfs_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "ttfs_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "max_rate_ok", Unit: "1/s", Better: "higher"},
		{Name: "ingest_ack_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "ingest_ack_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "recover_s", Unit: "s", Better: "lower"},
		{Name: "wal_bytes_per_row", Unit: "B", Better: "lower"},
		// Set-up.
		{Name: "datagen.build_s", Unit: "s", Better: "lower"},
		{Name: "datagen.rows_per_s", Unit: "1/s", Better: "higher"},
		{Name: "progressive.prepare_s", Unit: "s", Better: "lower"},
		{Name: "dataset.reorder_s", Unit: "s", Better: "lower"},
		{Name: "shard.partition_s", Unit: "s", Better: "lower"},
		{Name: "shard.coord_prepare_s", Unit: "s", Better: "lower"},
		{Name: "durable.bootstrap_s", Unit: "s", Better: "lower"},
		// Kernels.
		{Name: "engine.compile_us", Unit: "us", Better: "lower"},
		{Name: "engine.scan_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "engine.scan_ns_per_row.dense", Unit: "ns", Better: "lower"},
		{Name: "engine.scan_ns_per_row.map", Unit: "ns", Better: "lower"},
		{Name: "engine.dense_plan_share", Unit: "ratio", Better: "higher"},
		{Name: "engine.render_us", Unit: "us", Better: "lower"},
		{Name: "engine.scan_allocs_per_query", Unit: "count", Better: "lower"},
		// Progressive execution on the shared scan.
		{Name: "progressive.start_query_us", Unit: "us", Better: "lower"},
		{Name: "progressive.snapshot_us", Unit: "us", Better: "lower"},
		{Name: "progressive.first_snapshot_ms", Unit: "ms", Better: "lower"},
		{Name: "progressive.rows_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sharedscan.consumers_peak", Unit: "count", Better: "lower"},
		{Name: "sharedscan.leaked_consumers", Unit: "count", Better: "lower"},
		// Serving.
		{Name: "server.encode_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "server.decode_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "server.frame_bytes_p50", Unit: "B", Better: "lower"},
		{Name: "server.frame_bytes_p99", Unit: "B", Better: "lower"},
		{Name: "server.frames_per_query", Unit: "count", Better: "lower"},
		{Name: "server.wire_bytes_per_query", Unit: "B", Better: "lower"},
		{Name: "server.writes_per_query", Unit: "count", Better: "lower"},
		{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "server.rejected", Unit: "count", Better: "lower"},
		{Name: "server.shed_late", Unit: "count", Better: "lower"},
		{Name: "server.dropped_intermediates", Unit: "count", Better: "lower"},
	}
	for _, rate := range ladder {
		m = append(m,
			metric{Name: "loadgen.ttfs_ms_p99." + rungLabel(rate), Unit: "ms", Better: "lower"},
			metric{Name: "loadgen.good_share." + rungLabel(rate), Unit: "ratio", Better: "higher"})
	}
	return append(m, []metric{
		// Scatter-gather.
		{Name: "engine.partial_us", Unit: "us", Better: "lower"},
		{Name: "engine.fold_us", Unit: "us", Better: "lower"},
		{Name: "engine.fold_render_us", Unit: "us", Better: "lower"},
		{Name: "shard.backend_first_partial_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "shard.coord_overhead_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "shard.snapshot_us", Unit: "us", Better: "lower"},
		{Name: "shard.partial_bytes_per_query", Unit: "B", Better: "lower"},
		{Name: "shard.partial_frames_per_query", Unit: "count", Better: "lower"},
		{Name: "shard.failovers", Unit: "count", Better: "lower"},
		{Name: "shard.degraded_answers", Unit: "count", Better: "lower"},
		// The write path.
		{Name: "ingest.encode_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "ingest.decode_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "ingest.materialize_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "ingest.apply_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "ingest.engine_append_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "dataset.append_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "durable.log_batch_us_p50", Unit: "us", Better: "lower"},
		{Name: "durable.log_batch_us_p99", Unit: "us", Better: "lower"},
		{Name: "durable.fsyncs_per_batch", Unit: "count", Better: "lower"},
		{Name: "durable.fsync_us_p50", Unit: "us", Better: "lower"},
		{Name: "durable.write_bytes_per_batch", Unit: "B", Better: "lower"},
		{Name: "durable.checkpoints", Unit: "count", Better: "higher"},
		{Name: "durable.checkpoint_s", Unit: "s", Better: "lower"},
		{Name: "durable.checkpoint_bytes", Unit: "B", Better: "lower"},
		{Name: "durable.ack_ms_during_checkpoint_p99", Unit: "ms", Better: "lower"},
		{Name: "durable.recover_load_s", Unit: "s", Better: "lower"},
		{Name: "durable.wal_replay_s", Unit: "s", Better: "lower"},
		{Name: "dataset.decode_table_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "dataset.encode_table_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "ingest.staleness_rows_p99", Unit: "count", Better: "lower"},
		{Name: "ingest.rearmed_finals", Unit: "count", Better: "lower"},
		// The runtime under the window.
		{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
		{Name: "runtime.alloc_bytes_per_query", Unit: "B", Better: "lower"},
		{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
		{Name: "runtime.cpu_util", Unit: "ratio", Better: "lower"},
		// Where the time went, by layer self time over operation time.
		{Name: "trace.share.progressive", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.sharedscan", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.server", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.shard", Unit: "ratio", Better: "lower"},
		{Name: "trace.write_share.writer", Unit: "ratio", Better: "lower"},
		{Name: "trace.write_share.ingest", Unit: "ratio", Better: "lower"},
		{Name: "trace.write_share.durable", Unit: "ratio", Better: "lower"},
		{Name: "trace.write_share.progressive", Unit: "ratio", Better: "lower"},
		{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
		// Is the harness itself honest.
		{Name: "harness.sched_lag_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "harness.tr_timer_overshoot_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "harness.tr_late_share", Unit: "ratio", Better: "lower"},
		{Name: "harness.progress_at_tr_ontime", Unit: "ratio", Better: "higher"},
		{Name: "harness.gt_s", Unit: "s", Better: "lower"},
		{Name: "metrics.evaluate_us_per_query", Unit: "us", Better: "lower"},
		{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	}...)
}

// benchmarkJSON renders the repository's BENCHMARK.json from the tables
// above, so the file and the program cannot name different metrics.
func benchmarkJSON() ([]byte, error) {
	if len(perLayer) > 128 {
		return nil, fmt.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, w := range workloadSpecs {
		if n := utf8.RuneCountInString(w.Why); n > 200 {
			return nil, fmt.Errorf("%s: a why of %d characters, the contract allows 200", w.Name, n)
		}
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"` // no Bound, so no "bound" key
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
