package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/shard"
	"idebench/internal/stats"
)

func buildDB(t *testing.T, rows int, seed int64) *dataset.Database {
	t.Helper()
	db, err := core.BuildData(rows, false, seed)
	if err != nil {
		t.Fatalf("BuildData: %v", err)
	}
	return db
}

// TestPartitionRoutesConsistently checks the two halves of the hash
// contract: partitions cover the fact table exactly once, and re-routing a
// partition's own rows through the ingest-batch path sends every row back
// to the same shard. If table-row hashing and ingest-row hashing ever
// disagree, live ingest would scatter rows differently than the bulk load
// did and per-shard answers would silently drift.
func TestPartitionRoutesConsistently(t *testing.T) {
	db := buildDB(t, 6000, 7)
	const n = 4
	parts, err := shard.Partition(db, n)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for i, p := range parts {
		total += p.Fact.NumRows()
		b := ingest.FromTable(p.Fact, 0, p.Fact.NumRows())
		for r := 0; r < b.NumRows(); r++ {
			if home := shard.HomeShard(b, r, n); home != i {
				t.Fatalf("shard %d row %d routes to %d via ingest path", i, r, home)
			}
		}
	}
	if total != db.Fact.NumRows() {
		t.Fatalf("partitions cover %d rows, want %d", total, db.Fact.NumRows())
	}
}

// TestRouteBatchKeepsRowsInOrder: for every partition, the sub-batches
// RouteBatch cuts from a stream of batches, concatenated in order, hold
// exactly the parent rows homed there, in row order; and every sub-batch
// carries a canonical dictionary of its own (Validate refuses any other).
func TestRouteBatchKeepsRowsInOrder(t *testing.T) {
	db := buildDB(t, 3000, 5)
	const n = 3
	want := make([][]string, n) // per partition, its rows rendered in order
	got := make([][]string, n)
	render := func(b *ingest.Batch, r int) string {
		var sb strings.Builder
		for j := range b.Columns {
			c := &b.Columns[j]
			if c.Kind == dataset.Nominal {
				fmt.Fprintf(&sb, "%q,", c.Dict[c.Codes[r]])
			} else {
				fmt.Fprintf(&sb, "%x,", math.Float64bits(c.Nums[r]))
			}
		}
		return sb.String()
	}
	for lo := 0; lo < db.Fact.NumRows(); lo += 700 {
		parent := ingest.FromTable(db.Fact, lo, lo+700)
		for r := 0; r < parent.NumRows(); r++ {
			i := shard.HomeShard(parent, r, n)
			want[i] = append(want[i], render(parent, r))
		}
		subs, err := shard.RouteBatch(parent, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range subs {
			if sub.Table != parent.Table || len(sub.Columns) != len(parent.Columns) {
				t.Fatalf("sub-batch %d lost the parent's shape", i)
			}
			if sub.NumRows() > 0 {
				if err := sub.Validate(); err != nil {
					t.Fatalf("sub-batch %d: %v", i, err)
				}
			}
			for r := 0; r < sub.NumRows(); r++ {
				got[i] = append(got[i], render(sub, r))
			}
		}
	}
	for i := range want {
		if len(want[i]) == 0 || !slices.Equal(want[i], got[i]) {
			t.Fatalf("partition %d: sub-batches hold %d rows, the parents homed %d there (or in another order)", i, len(got[i]), len(want[i]))
		}
	}
}

// scanPartial scans one partition to completion and extracts its fragment.
func scanPartial(t *testing.T, db *dataset.Database, q *query.Query) *engine.Partial {
	t.Helper()
	plan, err := engine.Compile(db, q)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	gs := engine.NewGroupState(plan)
	gs.ScanRange(0, db.Fact.NumRows())
	n := int64(db.Fact.NumRows())
	return gs.Partial(n, n, n, true)
}

// TestFoldArrivalOrderInvariant is the satellite property test: folding K
// shard partials in fixed shard-ID order yields a bitwise-identical result
// no matter what order the fragments arrived in. Arrival order is simulated
// by permuting production; the fold buffers by shard ID before merging,
// which is exactly what the coordinator's snapshot path does.
func TestFoldArrivalOrderInvariant(t *testing.T) {
	db := buildDB(t, 9000, 11)
	const k = 5
	parts, err := shard.Partition(db, k)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	q := &query.Query{
		VizName: "v", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Sum, Field: "dep_delay"},
			{Func: query.Avg, Field: "arr_delay"},
			{Func: query.Min, Field: "distance"},
			{Func: query.Max, Field: "distance"},
		},
	}
	z, err := stats.ZScore(0.95)
	if err != nil {
		t.Fatalf("ZScore: %v", err)
	}

	fragments := make([]*engine.Partial, k)
	for i := range parts {
		fragments[i] = scanPartial(t, parts[i], q)
	}
	foldInOrder := func(byID []*engine.Partial) *query.Result {
		f := engine.NewPartialFold(q.Aggs)
		for _, p := range byID {
			f.Add(p)
		}
		return f.Render(z)
	}
	want := foldInOrder(fragments)
	if len(want.Bins) == 0 {
		t.Fatalf("reference fold has no bins")
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		// Fragments arrive in a random order; the buffer restores shard-ID
		// order before folding.
		arrival := rng.Perm(k)
		byID := make([]*engine.Partial, k)
		for _, i := range arrival {
			byID[i] = fragments[i]
		}
		got := foldInOrder(byID)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (arrival %v): fold differs from reference", trial, arrival)
		}
	}
}

// TestMergedCountBitwiseVsSingleNode checks the COUNT acceptance gate at
// the accumulator level: merging per-shard fragments and rendering equals a
// single GroupState scan over the union, bitwise (reflect.DeepEqual on
// Bins). Counts sum exactly regardless of scan split, so any disagreement
// means a lost, duplicated or mis-routed row.
func TestMergedCountBitwiseVsSingleNode(t *testing.T) {
	db := buildDB(t, 9000, 13)
	const k = 3
	parts, err := shard.Partition(db, k)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	q := &query.Query{
		VizName: "v", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	z, err := stats.ZScore(0.95)
	if err != nil {
		t.Fatalf("ZScore: %v", err)
	}

	fold := engine.NewPartialFold(q.Aggs)
	for i := range parts {
		fold.Add(scanPartial(t, parts[i], q))
	}
	merged := fold.Render(z)

	plan, err := engine.Compile(db, q)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	gs := engine.NewGroupState(plan)
	gs.ScanRange(0, db.Fact.NumRows())
	n := int64(db.Fact.NumRows())
	single := gs.SnapshotScaled(n, n, n, 0, z)

	if !reflect.DeepEqual(merged.Bins, single.Bins) {
		t.Fatalf("merged bins differ from single-node scan:\nmerged %v\nsingle %v", merged.Bins, single.Bins)
	}
	if !merged.Complete {
		t.Fatalf("merged result not complete")
	}
	if merged.RowsSeen != n || merged.TotalRows != n {
		t.Fatalf("merged rows_seen=%d total=%d, want %d", merged.RowsSeen, merged.TotalRows, n)
	}
}

// runToDone starts q, waits for completion and returns the final snapshot.
func runToDone(t *testing.T, eng engine.Engine, q *query.Query) *query.Result {
	t.Helper()
	sess := eng.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(q)
	if err != nil {
		t.Fatalf("StartQuery: %v", err)
	}
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("query did not complete")
	}
	res := h.Snapshot()
	if res == nil {
		t.Fatalf("no result after done")
	}
	return res
}

// TestCoordinatorEndToEnd runs a real in-process coordinator over three
// progressive shard engines against a single-node progressive engine:
// quiesced COUNT answers must match bitwise, before and after live ingest
// routed through the coordinator, and merged watermarks must sit on the
// global row axis.
func TestCoordinatorEndToEnd(t *testing.T) {
	db := buildDB(t, 8000, 17)
	opts := engine.Options{Confidence: 0.95, Seed: 17}

	single := progressive.New(progressive.Config{})
	if err := single.Prepare(db, opts); err != nil {
		t.Fatalf("single prepare: %v", err)
	}
	co, err := shard.NewCoordinator(
		progressive.New(progressive.Config{}),
		progressive.New(progressive.Config{}),
		progressive.New(progressive.Config{}),
	)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := co.Prepare(db, opts); err != nil {
		t.Fatalf("coordinator prepare: %v", err)
	}

	q := &query.Query{
		VizName: "v", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	base := int64(db.Fact.NumRows())
	wantBase := runToDone(t, single, q)
	gotBase := runToDone(t, co, q)
	if !reflect.DeepEqual(gotBase.Bins, wantBase.Bins) {
		t.Fatalf("quiesced bins differ before ingest")
	}
	if gotBase.Watermark != base {
		t.Fatalf("merged watermark %d, want %d", gotBase.Watermark, base)
	}
	if co.Watermark() != base {
		t.Fatalf("coordinator watermark %d, want %d", co.Watermark(), base)
	}

	// Live ingest: recycle a slice of the fact table as two appended batches,
	// routed through the coordinator and applied whole to the single node.
	for i, span := range [][2]int{{0, 400}, {400, 900}} {
		b := ingest.FromTable(db.Fact, span[0], span[1])
		b.Seq = int64(i + 1)
		if err := co.ApplyBatch(b, nil); err != nil {
			t.Fatalf("coordinator apply %d: %v", i, err)
		}
		tbl, err := ingest.Materialize(db, b)
		if err != nil {
			t.Fatalf("materialize %d: %v", i, err)
		}
		if err := single.Append(tbl); err != nil {
			t.Fatalf("single append %d: %v", i, err)
		}
	}
	grown := base + 900
	if got := co.Watermark(); got != grown {
		t.Fatalf("coordinator watermark %d after ingest, want %d", got, grown)
	}
	for i, pt := range co.Topology().Partitions {
		if pt.Watermark != grown {
			t.Fatalf("shard %d watermark %d, want %d (synchronous apply confirms all shards)", i, pt.Watermark, grown)
		}
	}

	wantGrown := runToDone(t, single, q)
	gotGrown := runToDone(t, co, q)
	if !reflect.DeepEqual(gotGrown.Bins, wantGrown.Bins) {
		t.Fatalf("quiesced bins differ after ingest")
	}
	if gotGrown.Watermark != grown || gotGrown.TotalRows != grown {
		t.Fatalf("merged watermark=%d total=%d after ingest, want %d", gotGrown.Watermark, gotGrown.TotalRows, grown)
	}
}

// laggingEngine is a fake shard whose confirmed watermark can be frozen,
// simulating a shard that accepted an append but has not yet absorbed it.
// Its query handles report fragments at the frozen watermark, so the
// coordinator's min-watermark rule is observable end to end.
type laggingEngine struct {
	name   string
	rows   int64 // local watermark actually absorbed
	frozen int64 // what Watermark() admits to; 0 means not frozen
}

func (f *laggingEngine) Name() string { return f.name }
func (f *laggingEngine) Prepare(db *dataset.Database, _ engine.Options) error {
	f.rows = int64(db.Fact.NumRows())
	return nil
}
func (f *laggingEngine) OpenSession() engine.Session { return f }
func (f *laggingEngine) StartQuery(q *query.Query) (engine.Handle, error) {
	done := make(chan struct{})
	close(done)
	w := f.Watermark()
	return &fakeHandle{partial: &engine.Partial{RowsSeen: w, Population: w, Watermark: w, Complete: true}, done: done}, nil
}
func (f *laggingEngine) LinkVizs(_, _ string) {}
func (f *laggingEngine) DeleteViz(_ string)   {}
func (f *laggingEngine) WorkflowStart()       {}
func (f *laggingEngine) WorkflowEnd()         {}
func (f *laggingEngine) Close()               {}
func (f *laggingEngine) Append(rows *dataset.Table) error {
	f.rows += int64(rows.NumRows())
	return nil
}
func (f *laggingEngine) Watermark() int64 {
	if f.frozen > 0 {
		return f.frozen
	}
	return f.rows
}

type fakeHandle struct {
	partial *engine.Partial
	done    chan struct{}
}

func (h *fakeHandle) Snapshot() *query.Result          { return nil }
func (h *fakeHandle) Done() <-chan struct{}            { return h.done }
func (h *fakeHandle) Cancel()                          {}
func (h *fakeHandle) PartialSnapshot() *engine.Partial { return h.partial }

// TestMinWatermarkUnderLaggingShard pins the alignment rule: when one shard
// lags behind the others mid-ingest, both the coordinator's Watermark and a
// merged snapshot's Result.Watermark equal the MIN over translated shard
// watermarks — the data version every fragment is guaranteed to cover.
func TestMinWatermarkUnderLaggingShard(t *testing.T) {
	db := buildDB(t, 4000, 19)
	shards := []*laggingEngine{{name: "fake0"}, {name: "fake1"}}
	co, err := shard.NewCoordinator(shards[0], shards[1])
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := co.Prepare(db, engine.Options{Confidence: 0.95, Seed: 19}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base := int64(db.Fact.NumRows())

	// Freeze shard 0 at its base partition size, then apply a batch. The
	// in-process apply path appends to both fakes, but shard 0 keeps
	// admitting only its base watermark — exactly a shard that is still
	// chewing on the batch.
	shards[0].frozen = shards[0].rows
	b := ingest.FromTable(db.Fact, 0, 600)
	b.Seq = 1
	if err := co.ApplyBatch(b, nil); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	grown := base + 600

	if got := co.Watermark(); got != base {
		t.Fatalf("coordinator watermark %d with lagging shard, want %d", got, base)
	}
	parts := co.Topology().Partitions
	if parts[0].Watermark != base {
		t.Fatalf("lagging shard watermark %d, want %d", parts[0].Watermark, base)
	}
	if parts[1].Watermark != grown {
		t.Fatalf("current shard watermark %d, want %d", parts[1].Watermark, grown)
	}
	res := runToDone(t, co, &query.Query{
		VizName: "v", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	})
	if res.Watermark != base {
		t.Fatalf("merged snapshot watermark %d with lagging shard, want min %d", res.Watermark, base)
	}

	// Shard 0 catches up: the min moves to the new global version.
	shards[0].frozen = 0
	if got := co.Watermark(); got != grown {
		t.Fatalf("coordinator watermark %d after catch-up, want %d", got, grown)
	}
}
