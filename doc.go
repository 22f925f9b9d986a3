// Package idebench is a from-scratch Go reproduction of "IDEBench: A
// Benchmark for Interactive Data Exploration" (Eichmann, Binnig, Kraska,
// Zgraggen — SIGMOD 2020): a benchmark framework for database engines
// serving interactive data exploration frontends, together with in-process
// implementations of the four engine archetypes the paper evaluates.
//
// [![CI](https://github.com/idebench/idebench-go/actions/workflows/ci.yml/badge.svg)](.github/workflows/ci.yml)
//
// The root package only anchors the module; the implementation lives under
// internal/, the runnable entry points under cmd/idebench and examples/, and
// the repository benchmark under bench/. The paper's tables and figures are
// regenerated by `idebench exp -name overall…table1`; `overall` runs the
// main experiment once and prints Fig. 5, Fig. 6a–c and Exp. 4 from that
// run, plus the out-of-margin share and bias per engine and TR.
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
// dimensions and wider domains. A whole 4096-row block takes the first
// memo that serves it (engine.GroupState.ScanRangeReusing): a recorded
// table of the block for an unfiltered dense plan, 1-D or 2-D (the slots
// the block touches, at most 2 KiB a table, under a ledger capped at the
// table's column bytes), a recorded selection of a filter's rows, or a range
// or IN filter's binary search in the block's row offsets sorted by value
// (dataset.BlockOrder, 2 B/row, built by the first scan that asks and
// likewise kept per lineage), before it tests every row. Block tables and
// block orders keep one pointer per block in one directory type,
// dataset.BlockDir. The archetypes
// differ only in their execution *models* — blocking parallel scan
// (exactdb), offline stratified sample (sampledb), online aggregation with
// a row-store cost model (onlinedb), and fully progressive permuted
// scanning with reuse and speculation (progressive) — not in their scan
// kernels, so benchmark comparisons measure the models, not incidental
// interpreter overhead.
//
// The data itself comes from the paper's Gaussian-copula generator
// (internal/datagen), which uses every core and still builds bitwise the
// same table for a given seed: one goroutine draws the random numbers in
// row order and workers map disjoint row blocks; golden SHA-256 digests pin
// the output.
//
// The sampling engines additionally store data in scan order: at prepare
// time, progressive and onlinedb materialize the fact table in their fixed
// random sampling permutation (dataset.ReorderTable), so "the next sample
// chunk" is a sequential range scan over dense columns rather than a
// random-order gather — any contiguous window of a fixed random permutation
// is still a uniform sample, so the confidence math is unchanged. On top of
// that storage, the progressive engine executes every concurrent query,
// reused partial state and speculation target as a consumer of one shared
// scan scheduler (internal/engine/sharedscan): engine.Options.Parallelism
// workers fold whole 4096-row blocks (dataset.BlockRows, the grid every
// per-block memo shares) for the consumer that has been served least, so a
// cheap query completes in about its own fold time instead of waiting on
// the expensive ones beside it. The scanner also records,
// once per accumulator shape, the table an unfiltered 1-D query folds over
// each 4096-row block, and later queries of that shape merge it instead of
// folding the rows.
//
// # Multi-user sessions
//
// The paper's system adapter (Sec. 4.5, Listing 1) is engine.Engine — Name,
// Prepare and OpenSession, nothing more — plus engine.Session, which carries
// every query verb (start query, link, delete viz, workflow start/end): all
// queries go through a session. Prepared engines are multi-user: OpenSession
// hands out one session per simulated analyst, scoping visualization
// namespaces, link hints, reuse caches and speculation rounds per session
// while the prepared data — and, on the progressive engine, the shared scan
// scheduler — serves all sessions at once. The driver layer mirrors this split:
// driver.Replay replays workflows as Config.Users concurrent simulated
// analysts against one prepared engine, each on its own session with its
// own think-time jitter stream (one user is the paper's driver). Every
// fetched result is captured with the live watermark and scored after the
// timed window closes, against one driver.Truth: groundtruth.Cache for a
// static table, ingest.Harness for a growing one. Throughput and latency
// percentiles per user-count aggregate in report.SummarizeUsers, the
// user-scalability experiment lives in internal/experiments (UserSweep,
// `idebench exp -name users`), and `idebench run -users N` replays any
// workload concurrently.
// All driver waiting goes through driver.Clock, so tests replay in
// simulated time (driver.SimClock) instead of sleeping.
//
// # Live ingestion
//
// The fact table is not frozen at Prepare: engines implementing the
// optional engine.Appender capability absorb append-only row batches while
// queries run. Each engine's data is one engine.Lineage: a single writer
// that grows the fact table copy-on-write (dataset.TableAppender, amortized
// O(batch) on privately owned column buffers) and publishes every data
// version as an immutable engine.View through an atomic pointer. Queries
// bind to the view they load and never wait for an append; in-flight plans
// keep scanning the view they compiled against. Each engine absorbs per its
// execution model — exactdb grows its columns and rescans, sampledb
// re-stratifies the batch into its offline sample, onlinedb appends to both
// its heap and its sampling-order copy, and the progressive engine extends
// the shared scan (sharedscan.Scanner.Extend) so every active, cached and
// speculative query state folds the new rows exactly once mid-sweep, while
// a query that had already completed keeps the final of its version.
//
// Every result snapshot carries a Watermark — the fact-row count of the
// data version it reflects. The ingest subsystem (internal/ingest) defines
// the columnar batch and its one binary codec (fuzzed) — the form a batch
// takes in memory, on the wire and in the WAL — a deterministic
// copula-backed batch source, and the Harness that replays mixed
// query+ingest timelines: it
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
// three slabs the result owns. A client's ingest frame is binary too: the
// columnar batch itself (ingest.Batch's binary form). Control messages —
// hello, error, reject, ingest watermark and the client's query, cancel,
// link and workflow frames — stay JSON text frames. The protocol is version
// 7, current or refuse: no negotiation, one encoding per message type, the
// opcode the only discriminator. The matching Go client
// (server.Remote) implements engine.Engine, so driver.Replay replays
// entire workflow sets over the wire unchanged
// (`idebench run -addr host:port`), making in-process vs over-the-wire
// latency an apples-to-apples comparison. See the wire-protocol section of
// internal/engine/README.md.
//
// `serve`, `shard` and `coord` are one bring-up — one shared flag set, one
// place assembling server.Options, one listen/banner/drain function — each
// adding only its role's hooks. /healthz serves server.Health (schema 5):
// live state top-level, the cumulative counters in an "admission" block, and
// where they apply the coordinator's "topology", the data directory's
// "durable" and the shared scan's "derived" (block-table ledger) blocks.
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
// Deadline-aware shedding complements admission: queries still running at
// twice their client-stated deadline (the server's lateFactor constant) are
// cancelled with their partial final marked Shed (the client snapshotted at
// the deadline anyway) — foreground queries inside their budget are never
// shed, and speculation needs no valve, because the shared scan never
// dispatches it while foreground work runs. Ping-based liveness (a ping every 10s,
// teardown after 30s of silence: the pingInterval and idleTimeout
// constants) tears down silent connections so a vanished client cannot
// hold shared-scan consumers, and every valve increments a counter surfaced
// on /healthz.
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
// engine.Partial: per-bin counts, mean/M2 moments and min/max as raw
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
// and watermark-proof promotion at a version barrier; `idebench probe`
// prints the tier's answer quality (full, degraded or refused) and a result
// digest. The coordinator's /healthz
// topology block reports the full per-replica state and each partition's
// confirmed watermark. The elastic wall kills a primary mid-replay, then a
// whole partition, then rebalances replacements in and requires
// bitwise-identical recovery; `idebench exp -name elastic` sweeps
// availability vs dead replicas.
//
// # Durable state
//
// `idebench serve -data-dir` makes the served state survive crashes
// (internal/durable). The layout has two halves. Checkpoints are
// incremental: table data lives in content-addressed segments
// (<data-dir>/segments/<sha256>.seg) of the stable segment codec
// (dataset.TableSegment — rows [from, to) of a table, dictionary deltas in
// code order, so two checkpoints of the same logical database are
// byte-identical), and a checkpoint is a ckpt-<version> directory holding
// only a MANIFEST.json that lists its segments with role, row range, CRC-32
// and SHA-256. Bootstrap writes the base (dimension tables, sampling
// permutation, fact rows); every later checkpoint streams one fact segment
// — the rows since the previous checkpoint — and a manifest naming the
// previous segments plus it, so a checkpoint costs the tail, not the table,
// and never holds a table-sized buffer. A view that does not extend the
// newest checkpoint is rewritten in full through the same path. Commit
// order is segment temp file → fsync → rename → fsync segments/, then
// manifest temp directory → fsync → rename to ckpt-<version> → fsync
// checkpoints/: a crash between the two leaves an orphan segment, which the
// next checkpoint's prune removes. The two retained checkpoints share every
// segment but the newest tail, which is the stated trade against keeping
// two full copies: the fallback covers a torn or corrupt newest tail, while
// a corrupt shared segment makes recovery refuse loudly, naming it. The
// background checkpointer fires on WAL bytes logged since the newest
// checkpoint, not on the WAL's size. The ingest WAL records every batch in
// its binary form (the bytes an ingest frame carries) in CRC-framed,
// version-chained records, fsynced *before* the engine applies the batch or
// any client hears an ack — the write-ahead hook (ingest.Applier.SetLog)
// runs under the apply mutex after validation, so WAL order is apply order
// and the log never holds a batch replay would reject. The data directory
// is format 3; a directory of any other format, or a log record holding a
// batch of another format, is refused by name rather than truncated.
//
// Recovery stitches the halves: load the newest checkpoint that fully
// verifies (falling back to an older one on corruption), truncate any torn
// WAL tail at the first bad CRC or broken version chain, replay the
// surviving records through the ordinary ingest path, and resume serving at
// the recovered batch-aligned watermark — warm, because engines exposing
// engine.ReorderedPreparer (progressive, exactdb) adopt the checkpoint's
// storage order directly and skip the sampling reorder, and engines
// exposing engine.ViewSnapshotter hand the background checkpointer
// copy-on-write views so checkpointing never pauses ingestion. That boot
// exists once, as core.Boot, shared by `serve -data-dir` and `exp -name
// restart`. The /healthz "durable" block is the store's durable.Status,
// `idebench inspect -data-dir` verifies a directory offline, the crash wall
// (internal/durable fault-injection tests plus the kill -9 e2e in
// cmd/idebench) proves acked batches survive real SIGKILL, and `idebench
// exp -name restart` gates warm boot beating cold prepare.
//
// # Continuous integration
//
// CI (.github/workflows/ci.yml, which names each step) runs lint, the
// race-enabled test suite on Go 1.23 and 1.24 plus race repeats of the
// concurrency walls, fuzz smokes over every decoder, benchmark smokes with a
// tiny pass of the repository benchmark, and the paper experiment with
// every serving-tier sweep in one process each. Each multi-process
// behaviour (serve, shard and coord processes, kill -9, warm restart,
// standby takeover, SIGTERM drain) is checked once, by the process walls in
// cmd/idebench under the race-enabled suite; no CI step starts a server
// from the shell.
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
// correctness gates fails.
package idebench
