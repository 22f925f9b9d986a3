// Command idebench is the benchmark driver CLI (paper Sec. 4.4): it
// generates datasets and workloads, runs the benchmark against the built-in
// engines, and regenerates every table and figure of the paper's evaluation
// section.
//
// Usage:
//
//	idebench datagen     -rows 500000 -out flights.csv
//	idebench workloadgen -rows 100000 -count 10 -interactions 18 -out flows.json
//	idebench run         -engine progressive -rows 500000 -tr 12ms -think 4ms
//	idebench run         -engine progressive -users 8
//	idebench run         -engine progressive -users 4 -ingest-every 3 -ingest-rows 2000
//	idebench serve       -engine progressive -rows 500000 -addr :8373
//	idebench serve       -engine progressive -rows 500000 -data-dir ./state
//	idebench inspect     -data-dir ./state
//	idebench shard       -rows 500000 -shard-index 0 -shard-count 3 -addr :9001
//	idebench shard       -rows 500000 -replica-of 0 -shard-count 3 -addr :9101
//	idebench coord       -rows 500000 -shards localhost:9001,localhost:9002,localhost:9003 -addr :8373
//	idebench coord       -rows 500000 -shards localhost:9001/localhost:9101,localhost:9002/localhost:9102 -min-coverage 0.5 -addr :8373
//	idebench coord       -rows 500000 -shards ... -data-dir ./coord-state -peers localhost:8374 -addr :8373
//	idebench coord       -rows 500000 -standby-of localhost:8373 -data-dir ./coord-state -addr :8374
//	idebench rebalance   -addr localhost:8373 -op add -partition 0 -shard-addr localhost:9102
//	idebench probe       -addr localhost:8373 -expect full
//	idebench run         -addr localhost:8373 -rows 500000 -users 8
//	idebench run         -addr localhost:8373 -rows 500000 -users 4 -ingest-every 3
//	idebench load        -addr localhost:8373 -rows 500000 -schedule ramp -rate 50 -rate2 2000
//	idebench exp         -name fig5 [-rows 500000] [-quick]
//	idebench exp         -name users
//	idebench exp         -name ingest
//	idebench exp         -name overload
//
// `run -users N` replays the workload as N concurrent simulated users, each
// on its own engine session, and appends the user-scalability table
// (throughput, p50/p95/p99 latency) to the summary. `exp -name users` sweeps
// 1/2/4/8 users on the shared-scan progressive engine vs the independent
// exactdb engine.
//
// `-ingest-every N` turns a replay ingest-aware: an append-only batch of
// `-ingest-rows` rows (drawn from the deterministic copula source) lands
// after every N workflow interactions; engines absorb the batches live,
// results are evaluated against the ground truth of the data version their
// watermark names, and the summary gains the staleness table. With -addr
// the batches additionally ship to the server as ingest frames, which the
// server applies and acknowledges to every live session. `exp -name ingest`
// sweeps 1/2/4/8 users with live appends and checks the quiesced results
// bitwise against a cold scan of the final table.
//
// `load` is the open-loop counterpart to `run -addr`: instead of replaying
// workflows with think-time coupling, it offers queries at an absolute-time
// arrival schedule (poisson, bursty, or ramp) that never slows down when the
// server does — the honest way to measure overload. It prints the admission
// and shedding counters with the admitted latency tails, and its -gate-*
// flags turn the run into a CI assertion (bounded done-p99, zero hard
// errors, knee crossed). `exp -name overload` runs the in-process sweep
// across a whole rate ladder. The serve side exposes the admission caps
// (-max-inflight, -max-inflight-per-conn); deadline shedding, the retry hint
// and ping liveness run at the server's defaults.
//
// `serve` exposes a prepared engine over the idebench wire protocol
// (internal/server): HTTP on -addr with /ws (WebSocket, one engine session
// per connection, streamed progressive snapshots) and /healthz. `run -addr`
// replays the same workloads through the network client instead of
// in-process — the driver is identical, so the two runs compare
// apples-to-apples. The run and serve sides must agree on -rows and -seed
// so the locally computed ground truth matches the served data. `serve`,
// `shard` and `coord` share one set of serving flags (-rows, -seed, -addr,
// -max-conns, -poll, -drain, plus the admission caps on `serve` and
// `coord`) and one listen/banner/drain path.
//
// `shard` and `coord` assemble the scatter-gather serving tier
// (internal/shard): N `shard` processes each serve one hash partition of the
// fact table (the same deterministic partitioning every process computes
// from -rows/-seed/-shard-count), and one `coord` process fronts them,
// fanning every query out, merging the shards' raw accumulator fragments in
// fixed shard-ID order (bitwise-deterministic float folds) and applying the
// min-watermark alignment rule to every merged snapshot. Ingest frames sent
// to the coordinator are hash-routed to the owning shards. Clients speak to
// the coordinator exactly as to a single `serve` — same protocol, same
// `run -addr` replay.
//
// The tier is elastic: each partition in `-shards` may list several
// '/'-separated replica addresses (`shard -replica-of N` starts one), the
// coordinator health-checks them and fails queries over mid-stream when a
// replica dies, and when a whole partition is unreachable it serves the
// survivors' merged answer annotated with a coverage block (partitions
// answered, population fraction) instead of an outage — down to the
// `-min-coverage` floor, below which it refuses. `-anti-entropy` runs a
// background bitwise divergence check between replicas. `rebalance` posts
// replica add/remove to a live coordinator; `probe` asserts the tier's
// coverage outcome from the outside (CI walls are built from it).
//
// The coordinator itself is redundant: `coord -data-dir` journals the
// authoritative control-plane state — partition map, replica membership
// with sync and quarantine flags, and the global→shard version-log
// translation, each step fsynced BEFORE the ingest ack — and
// `coord -standby-of ADDR -data-dir SAME` runs a warm standby that tails
// that journal, probes the primary, and on probe-confirmed death takes
// over serving at exactly the acknowledged watermark (it binds its -addr
// only at takeover). `-peers` lists the standby addresses the primary
// states in its hello frames, so clients that dialed only the primary
// learn the failover rotation before they need it; the client walks the
// rotation on redial (comma-separated `-addr` lists on `run`, `probe` and
// `load` seed it explicitly). A replica whose content diverges bitwise
// from its siblings is quarantined — excluded from fan-out and ingest,
// visible on /healthz, durable across coordinator restart — until
// readmitted through the rebalance path.
//
// `serve -data-dir` makes the served state durable (internal/durable): the
// prepared base is checkpointed once at boot, every ingest batch is written
// and fsynced to a write-ahead log before the engine applies it, and a
// background checkpointer bounds the log's length. After a crash — even a
// kill -9 mid-ingest — restarting with the same -data-dir recovers the
// newest verifying checkpoint, replays the WAL tail, and resumes serving at
// the exact batch-aligned watermark that was last acknowledged, warm
// (skipping datagen and the sampling reorder). `inspect` verifies a data
// directory offline: per-file checksums, the manifest's content digest, and
// the WAL's record chain.
//
// Run `idebench <command> -h` for each command's flags.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = cmdDatagen(os.Args[2:])
	case "workloadgen":
		err = cmdWorkloadgen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "coord":
		err = cmdCoord(os.Args[2:])
	case "rebalance":
		err = cmdRebalance(os.Args[2:])
	case "probe":
		err = cmdProbe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "view":
		err = cmdView(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "idebench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "idebench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `idebench — a benchmark for interactive data exploration (Go reproduction)

Commands:
  datagen      generate the scaled flights dataset as CSV
  workloadgen  generate benchmark workflows as JSON
  run          run the benchmark for one engine and setting (in-process, or -addr for a remote server)
  serve        serve an engine over the HTTP/WebSocket wire protocol
  shard        serve one hash partition of the dataset (one member of a scatter-gather tier)
  coord        serve a scatter-gather coordinator over shard replica sets (failover, degraded coverage)
  rebalance    post a replica add/remove to a running coordinator's admin endpoint
  probe        run one COUNT against a server and assert its coverage outcome (CI primitive)
  load         drive a server with open-loop load (poisson/bursty/ramp arrivals, CI gates)
  inspect      verify and summarize a durable data directory (checkpoints + WAL)
  exp          regenerate a paper experiment or serving-tier sweep (-name fig5, users, ..., all; see exp -h)
  view         inspect generated workflows (text or Graphviz DOT)
  analyze      re-aggregate a saved detailed report (summary + factor analysis)
`)
}
