// Package idebench is a from-scratch Go reproduction of "IDEBench: A
// Benchmark for Interactive Data Exploration" (Eichmann, Binnig, Kraska,
// Zgraggen — SIGMOD 2020): a benchmark framework for database engines
// serving interactive data exploration frontends, together with in-process
// implementations of the four engine archetypes the paper evaluates.
//
// [![CI](https://github.com/idebench/idebench-go/actions/workflows/ci.yml/badge.svg)](.github/workflows/ci.yml)
//
// The root package only anchors the module and its benchmark suite
// (bench_test.go); the implementation lives under internal/ and the
// runnable entry points under cmd/idebench and examples/.
//
// # Execution architecture
//
// All engine archetypes share one vectorized execution spine
// (internal/engine): query plans compile to type-specialized batch kernels
// that evaluate filters into selection vectors, compute bin keys, and fold
// aggregates over raw column slices ~4096 rows at a time, with a dense
// flat-array group-by fast path when the bin-key domain is small and known
// (see internal/engine/README.md). A quantitative fact column's bin index is
// not re-derived per query: the first plan to bin a column by a given
// (width, origin) memoizes one uint8 code per row on the column
// (dataset.Column.BinCodes — derived storage beside the bounds memo, 1 B/row
// per distinct binning, at most four per column, carried through the append
// lineage and never written to a checkpoint), and every later scan of a
// domain of up to 256 bins widens that byte instead of dividing; results are
// bitwise the arithmetic kernels', which remain for FK-indirected
// dimensions and wider domains. The archetypes differ only in their
// execution *models* — blocking parallel scan (exactdb), offline stratified
// sample (sampledb), online aggregation with a row-store cost model
// (onlinedb), and fully progressive permuted scanning with reuse and
// speculation (progressive) — not in their scan kernels, so benchmark
// comparisons measure the models, not incidental interpreter overhead.
//
// The sampling engines additionally store data in scan order: at prepare
// time, progressive and onlinedb materialize the fact table in their fixed
// random sampling permutation (dataset.ReorderTable), so "the next sample
// chunk" is a sequential range scan over dense columns rather than a
// random-order gather — any contiguous window of a fixed random permutation
// is still a uniform sample, so the confidence math is unchanged. On top of
// that storage, the progressive engine executes every concurrent query,
// reused partial state and speculation target as a consumer of one shared
// circular scan cursor (internal/engine/sharedscan): N in-flight queries
// cost roughly one memory sweep instead of N, and multi-viz throughput
// scales with engine.Options.Parallelism workers.
//
// # Multi-user sessions
//
// Prepared engines are multi-user: engine.Engine.OpenSession hands out one
// engine.Session per simulated analyst, scoping visualization namespaces,
// link hints, reuse caches and speculation rounds per session while the
// prepared data — and, on the progressive engine, the shared scan cursor —
// serves all sessions at once. The driver layer mirrors this split:
// driver.Runner replays one analyst on one session (the paper's driver),
// and driver.MultiRunner replays K workflows as K concurrent simulated
// users against one prepared engine, with per-user think-time jitter and
// per-user record streams. Throughput and latency percentiles per
// user-count aggregate in report.SummarizeUsers, the user-scalability
// experiment lives in internal/experiments (UserSweep, `idebench exp -name
// users`), and `idebench run -users N` replays any workload concurrently.
// All driver waiting goes through driver.Clock, so tests replay in
// simulated time (driver.SimClock) instead of sleeping.
//
// # Live ingestion
//
// The fact table is not frozen at Prepare: engines implementing the
// optional engine.Appender capability absorb append-only row batches while
// queries run. Storage growth is copy-on-write (dataset.TableAppender): a
// batch lands in amortized O(batch) on privately owned column buffers, a
// fresh immutable table view is published per data version, and in-flight
// plans keep scanning the view they compiled against. Each engine absorbs
// per its execution model — exactdb grows its columns and rescans, sampledb
// re-stratifies the batch into its offline sample, onlinedb appends to both
// its heap and its sampling-order copy, and the progressive engine extends
// the shared scan (sharedscan.Scanner.Extend) so every active, cached and
// speculative query state folds the new rows exactly once mid-sweep.
//
// Every result snapshot carries a Watermark — the fact-row count of the
// data version it reflects. The ingest subsystem (internal/ingest) defines
// the batch wire format (fuzzed), a deterministic copula-backed batch
// source, and the Harness that replays mixed query+ingest timelines: it
// owns a versioned ground-truth lineage, evaluates every result against
// the truth of the version its watermark names, and records the staleness
// metric (live watermark minus result watermark) in
// metrics.QueryMetrics.StalenessRows. Workflows gain ingest interactions
// (workflow.KindIngest, interleaved via workflow.InterleaveIngest), the
// server applies client ingest frames and broadcasts post-apply watermarks
// to all live sessions, `idebench run -ingest-every N` replays ingest-aware
// workloads in-process or over the wire, and `idebench exp -name ingest`
// sweeps 1/2/4/8 users with live appends, gating on quiesced results being
// bitwise-identical to a cold prepare over the final table.
//
// # Network serving
//
// internal/server turns any prepared engine into a network service: an
// HTTP endpoint (`idebench serve`) that upgrades connections to a
// dependency-free WebSocket (RFC 6455 subset, implemented in-repo), binds
// one engine.Session per connection, and streams progressive result
// snapshots as binary WebSocket frames with drop-intermediate,
// always-deliver-final backpressure — a slow client sees fewer, fresher
// intermediates and every final, and never stalls the shared scan. A
// snapshot frame is a small versioned header and a columnar body (keys as
// varints, values and margins as raw IEEE-754 columns; query.Result's and
// engine.Partial's binary forms), encoded by appending into the
// connection's one write buffer and sent in one write, decoded into two or
// three slabs the result owns; control messages — hello, error, reject,
// ingest watermark and everything the client sends — stay JSON text frames.
// The protocol is version 6, current or refuse: no negotiation, one encoding
// per message type, the opcode the only discriminator. The matching Go client
// (server.Remote) implements engine.Engine, so driver.Runner and
// driver.MultiRunner replay entire workflow sets over the wire unchanged
// (`idebench run -addr host:port`), making in-process vs over-the-wire
// latency an apples-to-apples comparison. See the wire-protocol section of
// internal/engine/README.md.
//
// # Overload survival
//
// The serving layer survives offered load past its capacity by answering
// what it admits and refusing the rest explicitly, never by queueing
// without bound. Admission control caps concurrently executing queries
// server-wide (server.Options.MaxInflight) and per connection
// (MaxInflightPerConn, fairness on the shared scan); an arrival past either
// cap gets an explicit reject frame with a retry hint — the session is not
// poisoned, the client may simply try again later. Rejections are
// classified for the client: over-capacity handshakes and per-query
// rejects carry a retry hint (retryable), drain-time refusals are terminal.
// Deadline-aware shedding complements admission: queries still running past
// LateFactor multiples of their client-stated deadline are cancelled with
// their partial final marked Shed (the client snapshotted at the deadline
// anyway), and speculative shared-scan work detaches first whenever
// admission pressure builds — foreground queries are never shed, only
// late and speculative work. Ping-based liveness (PingInterval/IdleTimeout)
// tears down silent connections so a vanished client cannot hold shared-scan
// consumers, and every valve increments a counter surfaced on /healthz.
//
// server.Remote reconnects dropped connections with exponential backoff and
// jitter when RemoteOptions.Reconnect is set, resuming at the server's live
// watermark. The open-loop load generator (internal/loadgen, `idebench
// load`) offers queries on an absolute-time arrival schedule — Poisson,
// bursty, or ramp — that never slows down when the server does, avoiding
// coordinated omission; workloads (hot-key, recency, read/ingest mixes) are
// pluggable via loadgen.Register. The fault-injecting TCP proxy
// (internal/faultnet) adds latency, jitter, mid-frame resets and
// slow-reader throttling between client and server, backing a chaos test
// wall that kills clients mid-query and mid-ingest and asserts zero leaked
// shared-scan consumers and bitwise-correct quiesced results. `idebench exp
// -name overload` sweeps a Poisson rate ladder through the shedding knee
// and reports p99/p99.9 admitted latency plus rejection and violation rates
// per rate, gating on the knee appearing, a bounded admitted p99 past it and
// zero leaked scan consumers.
//
// # Scatter-gather sharding
//
// internal/shard scales serving past one process. N `idebench shard`
// processes each prepare and serve one hash partition of the fact table —
// the full engine + sharedscan stack over their slice, behind the ordinary
// wire protocol — and one `idebench coord` process fronts them with a
// Coordinator that implements engine.Engine, so sessions, the driver and
// `run -addr` replay against the tier unchanged. Rows route to shards by a
// deterministic content hash (nominal cells hash their dictionary string,
// never the interning-order-dependent code), shared by the prepare-time
// partitioner (shard.Partition) and the ingest router (shard.RouteBatch),
// so every process derives the identical partition from -rows/-seed and
// live batches land on the shard that owns them.
//
// Queries fan out to every shard, which stream raw accumulator state —
// engine.Partial: per-bin counts, Welford moments and min/max as raw
// IEEE-754 columns, only the columns the aggregates use — rather than
// rendered results (a partials query's frames carry the partial alone). The coordinator buffers the
// freshest partial per shard and folds them in fixed shard-ID order
// (engine.PartialFold), rendering once, so float accumulation order is
// independent of network arrival order and merged snapshots are
// bitwise-deterministic; a merged snapshot exists only once every shard
// has contributed, so an unreachable shard means "no snapshot yet", never
// a silently biased partial answer. Ingest acks wait for every routed
// sub-batch, and a merged snapshot's Watermark is the minimum over its
// shards' watermarks translated onto recorded global versions — staleness
// under live appends stays well-defined as exactly what the slowest shard
// guarantees. The property wall (internal/shard) checks fold
// order-invariance and merged-vs-single-node bitwise equality, the
// 4-process e2e replays 8 ingest-aware users against a real
// 3-shard+coordinator tier, and `idebench exp -name shards` sweeps
// coordinator-over-N vs single-node.
//
// # Elasticity: replicas, failover, degraded coverage
//
// The shard tier masks partial failure instead of amplifying it. Each hash
// partition can carry R replicas (`idebench shard -replica-of`, coordinator
// -shards p0r0/p0r1,... syntax): replicated ingest applies every routed
// sub-batch to every healthy in-sync replica — one that misses a batch is
// excluded from query fan-out until its watermark proves catch-up — and a
// merged query that loses a replica mid-stream fails over to a live sibling,
// so one dead replica costs latency, never a failed query. Failover keys off
// probe-confirmed reachability, not stream shape: a live backend ending a
// query deliberately (viz deleted, speculation shed) is not a death signal.
//
// When a whole partition is unreachable, the coordinator serves the merged
// answer of the survivors annotated with a structured query.Coverage block
// (partitions answered/total, population fraction, degraded flag, Complete
// forced false) — never nil, never silently biased as full — carried on the
// wire by protocol v4; -min-coverage sets a refusal floor below which the
// answer is withheld instead. Because partials are bitwise-deterministic, a
// background anti-entropy loop folds the same probe from two replicas and
// alarms on divergence. Replica sets change at runtime: `idebench rebalance
// -op add|remove` grows or shrinks a partition, with capture-window catch-up
// and watermark-proof promotion at a version barrier; `idebench probe
// -expect full|degraded|refused` asserts the tier's answer quality (and
// prints a result digest) from the shell. The /healthz schema is versioned
// (server.Health, schema_version) and reports the full per-replica topology.
// Engine capability discovery is consolidated behind engine.CapabilitiesOf,
// one struct resolving all optional interfaces in a single pass. The elastic
// wall kills a primary mid-replay, then a whole partition, then rebalances
// replacements in and requires bitwise-identical recovery; `idebench exp
// -name elastic` sweeps availability vs dead replicas.
//
// # Durable state
//
// `idebench serve -data-dir` makes the served state survive crashes
// (internal/durable). The layout has two halves. Checkpoints are immutable
// directories of checksummed, versioned column segments — the stable table
// codec (dataset.EncodeTable) serializes dictionary values in code order,
// making two checkpoints of the same logical database byte-identical — plus
// the engine's sampling permutation and a MANIFEST.json naming every file
// with its CRC and an overall content digest; a checkpoint is written to a
// temp directory, fsynced, and renamed into place with the manifest last,
// so a crashed writer leaves either a fully valid checkpoint or ignorable
// debris. The ingest WAL records every batch (the same fuzzed wire format
// ingest frames use) in CRC-framed, version-chained records, fsynced
// *before* the engine applies the batch or any client hears an ack — the
// write-ahead hook (ingest.Applier.SetLog) runs under the apply mutex after
// validation, so WAL order is apply order and the log never holds a batch
// replay would reject.
//
// Recovery stitches the halves: load the newest checkpoint that fully
// verifies (falling back to an older one on corruption), truncate any torn
// WAL tail at the first bad CRC or broken version chain, replay the
// surviving records through the ordinary ingest path, and resume serving at
// the recovered batch-aligned watermark — warm, because engines exposing
// engine.ReorderedPreparer (progressive, exactdb) adopt the checkpoint's
// storage order directly and skip the sampling reorder, and engines
// exposing engine.ViewSnapshotter hand the background checkpointer
// copy-on-write views so checkpointing never pauses ingestion. /healthz
// reports the recovery provenance, `idebench inspect -data-dir` verifies a
// directory offline, the crash wall (internal/durable fault-injection tests
// plus the kill -9 e2e in cmd/idebench) proves acked batches survive real
// SIGKILL, and `idebench exp -name restart` gates warm boot beating cold
// prepare.
//
// # Continuous integration
//
// CI (.github/workflows/ci.yml) fans out into parallel jobs: lint
// (gofmt/vet/staticcheck), the race-enabled test suite on a Go 1.23/1.24
// matrix, fuzz smokes over the wire formats (the binary result, partial and
// snapshot-frame decoders included), benchmark smokes plus a tiny
// pass of the repository benchmark, and an end-to-end job that boots `idebench serve`,
// replays an 8-user workflow set through the WebSocket client, and requires
// streamed intermediates, finals, zero TR violations and a clean SIGTERM
// drain. The overload e2e job serves with tight admission caps, ramps the
// open-loop offered load past the knee with `idebench load`, and gates on
// bounded admitted p99, explicit rejections, and zero inflight queries and
// shared-scan consumers after the generator drains. The crash e2e job runs
// the durable suite and the kill -9 crash wall under -race, then SIGKILLs
// and warm-restarts a served data directory from the shell and requires the
// offline inspector to verify it clean. The shard e2e job runs the
// scatter-gather wall under -race, then boots three shard processes plus a
// coordinator from the shell, asserts the tier's topology on /healthz,
// replays 8 ingest-aware users against the coordinator, and drains the
// whole tier cleanly. The elastic e2e job runs the replica/failover wall
// under -race, then walks the failure ladder from the shell — kill a
// primary (probe full, bitwise digest vs a single-node serve), kill a
// partition (probe degraded), kill below the coverage floor (probe
// refused), rebalance replacements in (probe full again) — against a
// 2-partition, 2-replica tier.
//
// # Benchmark and sweeps
//
// Performance claims go through the repository benchmark: `bash
// bench/run.sh` builds and runs the harness in bench/ (its own module) over
// the four workloads and named metrics BENCHMARK.json declares. The
// multi-user, ingest, overload, shard, elastic and restart sweeps run as
// `idebench exp -name …` (experiments.Experiments is the index); the four
// replay sweeps are tables of topologies × user counts over one harness
// (internal/experiments/replay.go) and return one row type, and every sweep
// returns an error — so the command exits non-zero — when one of its
// correctness gates fails. BENCH_2.json … BENCH_9.json at the repo root are
// a frozen historical record, written by a tool that has since been removed;
// nothing reads or regenerates them.
package idebench
