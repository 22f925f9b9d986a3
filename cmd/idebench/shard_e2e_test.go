package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/faultnet"
	"idebench/internal/query"
	"idebench/internal/server"
	"idebench/internal/workflow"
)

// sigtermDrain sends SIGTERM and requires a clean exit with the drain
// banner within the deadline.
func sigtermDrain(t *testing.T, p *servedProc, who string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: signal: %v", who, err)
	}
	select {
	case <-p.eof:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not drain; output:\n%s", who, p.output())
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s: drain exit: %v\noutput:\n%s", who, err, p.output())
	}
	if out := p.output(); !bytes.Contains([]byte(out), []byte("drained, bye")) {
		t.Fatalf("%s: no clean drain banner:\n%s", who, out)
	}
}

// TestShardScatterGatherE2E is the serving-tier wall: three real `idebench
// shard` processes plus one `idebench coord` process, an 8-user ingest-aware
// replay through the fault-injecting proxy against the coordinator, then the
// bitwise gate — the quiesced merged COUNT must equal, bin for bin, a cold
// single-node prepare over the final data version — and a clean SIGTERM
// drain of the whole tier.
func TestShardScatterGatherE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a 4-process serving tier")
	}
	const (
		rows       = 20000
		shardCount = 3
		users      = 8
	)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "idebench.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The tier: every process derives the same partitioning from
	// -rows/-seed/-shard-count; nothing is shipped at prepare time.
	shardAddrs := make([]string, shardCount)
	shardProcs := make([]*servedProc, shardCount)
	for i := 0; i < shardCount; i++ {
		shardProcs[i] = startProc(t, bin, "shard",
			"-rows", strconv.Itoa(rows), "-seed", "1",
			"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(shardCount),
			"-addr", "127.0.0.1:0")
		shardAddrs[i] = shardProcs[i].addr
	}
	coord := startProc(t, bin, "coord",
		"-rows", strconv.Itoa(rows), "-seed", "1",
		"-shards", strings.Join(shardAddrs, ","),
		"-addr", "127.0.0.1:0")

	// Topology assertions: roles, shard count, partition coverage, and the
	// pre-ingest watermark alignment (all shards at the base version).
	var shardRows int64
	for i, sp := range shardProcs {
		hz := getHealthz(t, sp.addr)
		if hz.Role != "shard" {
			t.Fatalf("shard %d healthz role %q, want shard", i, hz.Role)
		}
		shardRows += hz.Rows
	}
	if shardRows != rows {
		t.Fatalf("shard partitions cover %d rows, want %d", shardRows, rows)
	}
	chz := getHealthz(t, coord.addr)
	marks := partitionWatermarks(chz)
	if chz.Role != "coord" || len(marks) != shardCount {
		t.Fatalf("coordinator healthz role=%q partitions=%d, want coord/%d", chz.Role, len(marks), shardCount)
	}
	if slices.Min(marks) != rows || chz.Watermark != rows {
		t.Fatalf("coordinator pre-ingest watermarks %v (served %d), want all at %d", marks, chz.Watermark, rows)
	}

	// 8-user ingest-aware replay through the chaos proxy, exactly the
	// `run -addr -users 8 -ingest-every 3` path.
	px, err := faultnet.New(coord.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := server.NewRemote(px.Addr())
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
	flows := workflow.InterleaveIngestAll(core.MixedOnly(all), 3, 500)
	if len(flows) < users {
		t.Fatalf("only %d workflows for %d users", len(flows), users)
	}
	h, err := newIngestHarness(db, 1, rem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Replay(rem, h, driver.Config{
		TimeRequirement: 250 * time.Millisecond,
		ThinkTime:       time.Millisecond,
		DataSizeLabel:   core.SizeLabel(rows),
		IngestSink:      h,
		Users:           users,
		ThinkJitter:     driver.DefaultThinkJitter,
		Seed:            1,
	}, flows[:users])
	if err != nil {
		t.Fatalf("multi-user replay: %v\ncoord output:\n%s", err, coord.output())
	}
	violations := 0
	for _, r := range res.Records {
		if r.Metrics.TRViolated {
			violations++
		}
	}
	if violations != 0 {
		t.Fatalf("%d TR violations across %d records (generous 250ms requirement; want 0)", violations, len(res.Records))
	}
	if h.IngestedRows() == 0 {
		t.Fatalf("replay fed no ingest batches")
	}
	if err := checkStream(rem.Stats()); err != nil {
		t.Fatalf("merged replay through the coordinator: %v", err)
	}

	// Quiesce: the coordinator's ack broadcast carries the global min
	// watermark, so catching up means every shard confirmed every batch.
	fed := h.Watermark()
	deadline := time.Now().Add(30 * time.Second)
	for rem.Watermark() < fed {
		if err := rem.Err(); err != nil {
			t.Fatalf("coordinator rejected ingestion: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator watermark %d never reached fed %d\ncoord output:\n%s",
				rem.Watermark(), fed, coord.output())
		}
		time.Sleep(5 * time.Millisecond)
	}
	chz = getHealthz(t, coord.addr)
	marks = partitionWatermarks(chz)
	if len(marks) != shardCount || chz.Watermark != fed || slices.Min(marks) != fed {
		t.Fatalf("quiesced coordinator healthz watermark=%d partitions %v, want %d", chz.Watermark, marks, fed)
	}
	for i, w := range marks {
		if w != fed {
			t.Fatalf("quiesced shard %d watermark %d, want %d", i, w, fed)
		}
	}

	// Bitwise gate: the merged COUNT over the quiesced tier vs a cold
	// single-node prepare of the exact final data version.
	finalDB := h.FinalView()
	q := &query.Query{
		VizName: "shard_count", Table: finalDB.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	s := core.DefaultSettings()
	s.DataSize = rows
	s.Seed = 1
	single, err := core.Prepare("progressive", finalDB, s)
	if err != nil {
		t.Fatal(err)
	}
	want := runQueryToDone(t, single.Engine, q, "single-node")
	got := runQueryToDone(t, rem, q, "coordinator")
	if !got.Complete {
		t.Fatalf("merged quiesced result not complete: %+v", got)
	}
	if got.Watermark != fed {
		t.Fatalf("merged result watermark %d, want %d", got.Watermark, fed)
	}
	if !reflect.DeepEqual(got.Bins, want.Bins) {
		t.Fatalf("merged COUNT differs from single-node cold prepare:\nmerged %v\nsingle %v", got.Bins, want.Bins)
	}

	// Clean teardown: the coordinator first (it holds client sessions into
	// the shards), then every shard.
	sigtermDrain(t, coord, "coordinator")
	for i, sp := range shardProcs {
		sigtermDrain(t, sp, fmt.Sprintf("shard %d", i))
	}
}

// partitionWatermarks lists the confirmed watermark of each partition in a
// coordinator's /healthz topology block (nil without one).
func partitionWatermarks(h server.Health) []int64 {
	if h.Topology == nil {
		return nil
	}
	marks := make([]int64, len(h.Topology.Partitions))
	for i, pt := range h.Topology.Partitions {
		marks[i] = pt.Watermark
	}
	return marks
}

// runQueryToDone runs q on eng and returns the final snapshot.
func runQueryToDone(t *testing.T, eng engine.Engine, q *query.Query, who string) *query.Result {
	t.Helper()
	sess := eng.OpenSession()
	defer sess.Close()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		t.Fatalf("%s: start: %v", who, err)
	}
	select {
	case <-hdl.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: query did not complete", who)
	}
	res := hdl.Snapshot()
	if res == nil {
		t.Fatalf("%s: no result after done", who)
	}
	return res
}
