package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/server"
	"idebench/internal/shard"
)

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine serving this partition: "+strings.Join(core.EngineNames, ", "))
	shardIndex := fs.Int("shard-index", 0, "this shard's ID in [0, shard-count)")
	shardCount := fs.Int("shard-count", 1, "number of shards the fact table is hash-partitioned across")
	replicaOf := fs.Int("replica-of", -1, "serve as an additional replica of this partition (overrides -shard-index; replicas of one partition are interchangeable processes holding the same deterministic slice)")
	cfg := servingFlags(fs, ":9001", false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicaOf >= 0 {
		// A replica holds exactly the partition it replicates: same derivation,
		// same rows. The distinct spelling documents intent in process tables.
		*shardIndex = *replicaOf
	}
	if *shardCount < 1 || *shardIndex < 0 || *shardIndex >= *shardCount {
		return fmt.Errorf("shard: -shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount)
	}

	// Every tier member builds the same full dataset and computes the same
	// deterministic hash partitioning; this process keeps partition
	// -shard-index and drops the rest. Nothing is shipped between processes
	// at prepare time.
	db, err := core.BuildData(*cfg.rows, false, *cfg.seed)
	if err != nil {
		return err
	}
	parts, err := shard.Partition(db, *shardCount)
	if err != nil {
		return err
	}
	part := parts[*shardIndex]

	p, err := core.Prepare(*engineName, part, cfg.settings())
	if err != nil {
		return err
	}
	fmt.Printf("shard %d/%d holds %d of %d rows; data preparation time: %v\n",
		*shardIndex, *shardCount, part.Fact.NumRows(), db.Fact.NumRows(), p.PrepTime.Round(time.Microsecond))

	opts := cfg.options("shard", int64(part.Fact.NumRows()))
	if app, ok := p.Engine.(engine.Appender); ok {
		// The coordinator routes ingest sub-batches here; they materialize
		// and validate against this shard's own partition.
		opts.Apply = ingest.NewApplier(part, app).Apply
	}
	return cfg.listenAndServe(p.Engine, opts, nil)
}

// dialReplica opens one coordinator-side backend connection to a shard
// replica: partials requested on every query (the merge needs raw
// fragments), transparent reconnect (a replica restart must not wedge the
// tier — the health loop re-syncs it).
func dialReplica(addr string) (*server.Remote, error) {
	return server.NewRemoteWithOptions(strings.TrimSpace(addr),
		server.RemoteOptions{Partials: true, Reconnect: true})
}

// antiEntropyQuery is the background divergence probe: a full-table COUNT by
// carrier — cheap, deterministic, and touching every row, so replicas that
// lost or duplicated a batch cannot agree on it.
func antiEntropyQuery() *query.Query {
	return &query.Query{
		VizName: "ae_count", Table: datagen.FlightsTable,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// splitAddrs parses a comma-separated address list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// dialRotation connects a client to a comma-separated failover list
// (primary first, then warm standbys). With more than one address the
// client reconnects through the rotation when the primary dies; a single
// address keeps the fail-loudly default — a benchmark replay should not
// paper over a flaky single-server setup.
func dialRotation(addr string) (*server.Remote, error) {
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, errors.New("-addr is empty")
	}
	return server.NewRemoteWithOptions(addrs[0], server.RemoteOptions{
		Addrs: addrs[1:], Reconnect: len(addrs) > 1,
	})
}

// standbyWait blocks until the primary coordinator at primary is
// probe-confirmed dead: failures consecutive /healthz probes failed. While
// waiting it tails the shared journal read-only — a torn trailing record is
// the primary mid-append, which a non-owning read stops before rather than
// truncating — so the takeover starts from state the standby has already
// seen and validated.
func standbyWait(primary, dataDir string, interval time.Duration, failures int) error {
	if failures < 1 {
		failures = 1
	}
	client := &http.Client{Timeout: server.PingTimeout}
	consecutive := 0
	lastGlobal := int64(-1)
	for {
		if st, _, err := shard.ReadCoordState(dataDir); err == nil && st != nil && st.Global != lastGlobal {
			lastGlobal = st.Global
			fmt.Printf("standby: tailing %s — global version %d over %d partitions\n",
				dataDir, st.Global, len(st.Parts))
		}
		resp, err := client.Get("http://" + primary + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				consecutive = 0
				time.Sleep(interval)
				continue
			}
		}
		consecutive++
		fmt.Printf("standby: primary %s probe failed (%d/%d)\n", primary, consecutive, failures)
		if consecutive >= failures {
			fmt.Printf("standby: primary %s confirmed dead, taking over\n", primary)
			return nil
		}
		time.Sleep(interval)
	}
}

// recoverCoordinator rebuilds a serving coordinator from journaled
// control-plane state: every journaled replica is re-dialed at its
// journaled address, then the partition map, version log and quarantine
// flags are restored verbatim — watermark translation after the takeover
// is exactly what the previous incarnation acked. Sync flags are re-proved
// from each replica's live watermark, not trusted.
func recoverCoordinator(db *dataset.Database, st *shard.CoordState, coOpts shard.Options) (*shard.Coordinator, []*server.Remote, error) {
	var rems []*server.Remote
	fail := func(err error) (*shard.Coordinator, []*server.Remote, error) {
		for _, r := range rems {
			r.Close()
		}
		return nil, nil, err
	}
	specs := make([][]shard.ReplicaSpec, len(st.Parts))
	for i, set := range st.Parts {
		for _, ps := range set {
			if ps.Addr == "" {
				return fail(fmt.Errorf("coord: journaled replica %s of partition %d has no address; in-process members cannot be re-dialed", ps.Name, i))
			}
			rem, err := dialReplica(ps.Addr)
			if err != nil {
				return fail(fmt.Errorf("coord: re-dial partition %d replica %s at %s: %w", i, ps.Name, ps.Addr, err))
			}
			rems = append(rems, rem)
			specs[i] = append(specs[i], shard.ReplicaSpec{Engine: rem, Addr: ps.Addr, Name: ps.Name})
		}
	}
	co, err := shard.NewReplicatedSpecs(coOpts, specs...)
	if err != nil {
		return fail(err)
	}
	if err := co.Restore(db, st); err != nil {
		return fail(err)
	}
	return co, rems, nil
}

func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	cfg := servingFlags(fs, ":8373", true)
	shards := fs.String("shards", "", "comma-separated shard replica sets, '/'-separated replicas within a set (e.g. h:9001/h:9101,h:9002/h:9102); set ORDER assigns partition IDs and must match each server's -shard-index/-replica-of; ignored when -data-dir holds recoverable state")
	minCoverage := fs.Float64("min-coverage", 0, "refuse degraded merged results whose live population fraction is below this floor (0 serves any non-empty coverage)")
	healthInterval := fs.Duration("health-interval", time.Second, "replica health-probe cadence (0 disables the loop)")
	antiEntropy := fs.Duration("anti-entropy", 0, "background replica divergence-check cadence, bitwise over canonical fragments (0 disables)")
	dataDir := fs.String("data-dir", "", "control-plane journal directory: membership, quarantine flags and the version log are write-ahead-logged here before acks and recovered on restart (empty = in-memory only)")
	standbyOf := fs.String("standby-of", "", "run as a warm standby of the primary coordinator at this address: tail the shared -data-dir journal, probe the primary, and take over serving once it is probe-confirmed dead (requires -data-dir)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "standby's primary-death probe cadence")
	takeoverFailures := fs.Int("takeover-failures", 3, "consecutive failed probes before the standby takes over")
	peers := fs.String("peers", "", "comma-separated list of every address this serving tier is reachable at (primary first, then standbys); stated on hello frames so clients learn where to redial")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The coordinator computes the same partitioning the shards did, both to
	// sanity-check each replica's prepared row count and to route ingest.
	db, err := core.BuildData(*cfg.rows, false, *cfg.seed)
	if err != nil {
		return err
	}

	if *standbyOf != "" {
		if *dataDir == "" {
			return errors.New("coord: -standby-of requires -data-dir (the journal the standby tails)")
		}
		// Block here — dataset built, warm — until the primary is confirmed
		// dead; only then take ownership of the journal and bind the listener.
		if err := standbyWait(*standbyOf, *dataDir, *probeInterval, *takeoverFailures); err != nil {
			return err
		}
	}

	coOpts := shard.Options{MinCoverage: *minCoverage}
	var journal *shard.CoordJournal
	if *dataDir != "" {
		journal, err = shard.OpenCoordJournal(*dataDir)
		if err != nil {
			return err
		}
		defer journal.Close()
		coOpts.Journal = journal
	}

	var co *shard.Coordinator
	if st := func() *shard.CoordState {
		if journal == nil {
			return nil
		}
		return journal.State()
	}(); st != nil {
		var rems []*server.Remote
		co, rems, err = recoverCoordinator(db, st, coOpts)
		if err != nil {
			return err
		}
		for _, rem := range rems {
			defer rem.Close()
		}
		fmt.Printf("recovered coordinator over %d partitions (%d replicas) at global version %d from %s\n",
			co.Shards(), len(rems), co.Watermark(), *dataDir)
	} else {
		if *shards == "" {
			return errors.New("coord: -shards is required (comma-separated replica sets, '/' between replicas)")
		}
		partSpecs := strings.Split(*shards, ",")
		specs := make([][]shard.ReplicaSpec, len(partSpecs))
		replicas := 0
		for i, spec := range partSpecs {
			for _, a := range strings.Split(spec, "/") {
				a = strings.TrimSpace(a)
				rem, err := dialReplica(a)
				if err != nil {
					return fmt.Errorf("coord: partition %d replica at %s: %w", i, a, err)
				}
				defer rem.Close()
				specs[i] = append(specs[i], shard.ReplicaSpec{Engine: rem, Addr: a})
				replicas++
			}
		}
		co, err = shard.NewReplicatedSpecs(coOpts, specs...)
		if err != nil {
			return err
		}
		s := cfg.settings()
		start := time.Now()
		if err := co.Prepare(db, engine.Options{Confidence: s.Confidence, Seed: s.Seed}); err != nil {
			return err
		}
		fmt.Printf("coordinator over %d partitions (%d replicas); partition check + prepare in %v\n",
			co.Shards(), replicas, time.Since(start).Round(time.Microsecond))
	}
	if *healthInterval > 0 {
		defer co.StartHealthLoop(*healthInterval)()
	}
	if *antiEntropy > 0 {
		defer co.StartAntiEntropyLoop(*antiEntropy, 30*time.Second, antiEntropyQuery)()
	}

	opts := cfg.options("coord", int64(db.Fact.NumRows()))
	opts.Peers = splitAddrs(*peers)
	// Ingest frames route through the coordinator: validate against the full
	// database, then hash-split to the owning shards and wait for their
	// confirmed watermarks (the applier's returned watermark is the global
	// min, which is what the ack broadcast should carry).
	opts.Apply = ingest.NewApplier(db, co).Apply
	// POST /rebalance changes the replica topology while serving: attach a
	// cold replica (it re-syncs from its own durable state and is promoted by
	// the health loop), or detach one by name. A shard process owns its
	// durable state, so a remote newcomer proves freshness through its
	// watermark; the checkpoint-streaming handoff (Coordinator.Rebalance)
	// needs an in-process target and is not offered here.
	opts.Rebalance = func(req server.RebalanceRequest) error {
		switch req.Op {
		case "remove":
			return co.RemoveReplica(req.Partition, req.Name)
		case "add":
			rem, err := dialReplica(req.Addr)
			if err != nil {
				return fmt.Errorf("coord: dial new replica %s: %w", req.Addr, err)
			}
			if err := co.AddReplicaAddr(req.Partition, rem, strings.TrimSpace(req.Addr)); err != nil {
				rem.Close()
				return err
			}
			return nil
		}
		return fmt.Errorf("coord: unknown rebalance op %q", req.Op)
	}
	return cfg.listenAndServe(co, opts, nil)
}

// cmdRebalance posts one topology change to a running coordinator's
// /rebalance admin endpoint.
func cmdRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "coordinator address")
	op := fs.String("op", "add", "topology change: add (attach a shard replica), remove (detach a replica by name)")
	partition := fs.Int("partition", 0, "target partition ID")
	shardAddr := fs.String("shard-addr", "", "replica address (host:port) for -op add")
	name := fs.String("name", "", "replica name for -op remove (as reported on /healthz topology)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := json.Marshal(server.RebalanceRequest{
		Op: *op, Partition: *partition, Addr: *shardAddr, Name: *name,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+*addr+"/rebalance", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rebalance: %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	fmt.Printf("rebalance %s partition %d: ok\n", *op, *partition)
	return nil
}

// resultDigest is a canonical bitwise fingerprint of a result's bins: keys
// in sorted order, every value and margin as its IEEE-754 bits. Two results
// digest equal iff their rendered aggregates are bitwise identical.
func resultDigest(res *query.Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, k := range res.SortedKeys() {
		put(uint64(k.A))
		put(uint64(k.B))
		bv := res.Bins[k]
		for _, v := range bv.Values {
			put(math.Float64bits(v))
		}
		for _, m := range bv.Margins {
			put(math.Float64bits(m))
		}
	}
	return h.Sum64()
}

// cmdProbe runs one full-table COUNT against a server and prints its
// outcome — "full" (complete answer, full coverage), "degraded"
// (coverage-annotated partial-population answer) or "refused" (no result:
// the tier is below its -min-coverage floor or fully unreachable) — with
// the result's watermark, covered fraction and canonical digest.
func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "server address to probe; a comma-separated list probes through the failover rotation (primary first)")
	timeout := fs.Duration("timeout", 30*time.Second, "probe query budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rem, err := dialRotation(*addr)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer rem.Close()
	sess := rem.OpenSession().(*server.RemoteSession)
	defer sess.Close()
	h, err := sess.StartQuery(antiEntropyQuery())
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	select {
	case <-h.Done():
	case <-time.After(*timeout):
		h.Cancel()
		return fmt.Errorf("probe: no final frame within %v", *timeout)
	}
	res := h.Snapshot()
	if res == nil {
		fmt.Printf("probe %s: refused (no result", *addr)
		if err := sess.Err(); err != nil {
			fmt.Printf("; server said: %v", err)
		}
		fmt.Println(")")
		return nil
	}
	cov := res.Coverage
	outcome, fraction := "full", 1.0
	if !cov.Full() {
		outcome, fraction = "degraded", cov.PopulationFraction
	}
	var total float64
	for _, bv := range res.Bins {
		if len(bv.Values) > 0 {
			total += bv.Values[0]
		}
	}
	fmt.Printf("probe %s: %s — count %.0f over %d bins, watermark %d, complete %v, fraction %.4f, digest %016x\n",
		*addr, outcome, total, len(res.Bins), res.Watermark, res.Complete, fraction, resultDigest(res))
	if cov != nil {
		fmt.Printf("coverage: %d/%d partitions, population fraction %.4f, degraded %v\n",
			cov.PartitionsAnswered, cov.PartitionsTotal, cov.PopulationFraction, cov.Degraded)
	}
	return nil
}
