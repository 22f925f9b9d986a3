package sharedscan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// ingestFixture wraps the shared-scan fixture with an append lineage, the
// shape the progressive engine drives under live ingestion.
type ingestFixture struct {
	*fixture
	app *dataset.TableAppender
}

func newIngestFixture(t testing.TB, rows int, seed int64) *ingestFixture {
	f := newFixture(t, rows, seed)
	return &ingestFixture{fixture: f, app: dataset.NewTableAppender(f.db.Fact, true)}
}

// appendBatch grows the fixture's table by n deterministic rows and returns
// the new view.
func (f *ingestFixture) appendBatch(t testing.TB, n int, seed int64) *dataset.Database {
	t.Helper()
	fact := f.db.Fact
	b := dataset.NewBuilder(fact.Name, fact.Schema, n)
	b.SetDict(0, fact.Columns[0].Dict)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		b.AppendString(0, fmt.Sprintf("c%d", rng.Intn(9))) // incl. codes new to the dict
		b.AppendNum(1, rng.NormFloat64()*80-5)
	}
	batch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	view, err := f.app.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	f.db = &dataset.Database{Fact: view}
	return f.db
}

// TestExtendMidSweepExactlyOnce appends while a consumer is mid-sweep: the
// completed result must equal an independent scan of the final table — every
// old row and every tail row folded exactly once.
func TestExtendMidSweepExactlyOnce(t *testing.T) {
	f := newIngestFixture(t, 300000, 21)
	s := New(f.db.Fact.NumRows(), 256, 2)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	deadline := time.Now().Add(10 * time.Second)
	for c.RowsSeen() == 0 && time.Now().Before(deadline) {
	}
	if c.IsDone() {
		t.Skip("scan finished before the append could land mid-sweep")
	}
	db := f.appendBatch(t, 5000, 100)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	c.Release()
	res := c.Snapshot(1.96)
	if !res.Complete {
		t.Fatal("extended consumer should complete over the grown table")
	}
	if res.Watermark != int64(db.Fact.NumRows()) {
		t.Fatalf("watermark %d, want %d", res.Watermark, db.Fact.NumRows())
	}
	resultsIdentical(t, "mid-sweep extend", f.exact(t, 0), res)
}

// TestExtendReArmsCompletedConsumer: a consumer that already completed must
// re-arm on Extend, absorb only the tail, and complete again with an exact
// result over the grown table.
func TestExtendReArmsCompletedConsumer(t *testing.T) {
	f := newIngestFixture(t, 50000, 22)
	s := New(f.db.Fact.NumRows(), 1024, 2)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	waitDone(t, c)
	c.Release()
	if !c.IsDone() {
		t.Fatal("consumer should be complete before the append")
	}
	firstFolded := c.RowsSeen()

	db := f.appendBatch(t, 3000, 200)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	if c.IsDone() {
		t.Fatal("extend must re-arm a completed consumer")
	}
	c.Acquire()
	waitDone(t, c)
	c.Release()
	if folded := c.RowsSeen(); folded != firstFolded+3000 {
		t.Fatalf("folded %d rows after extension, want %d (old coverage + tail only)",
			folded, firstFolded+3000)
	}
	resultsIdentical(t, "re-armed consumer", f.exact(t, 0), c.Snapshot(1.96))
}

// TestExtendDetachedConsumerResumes: a cancelled (detached) partial state
// gains the tail while detached and completes exactly after reattaching.
func TestExtendDetachedConsumerResumes(t *testing.T) {
	f := newIngestFixture(t, 300000, 23)
	s := New(f.db.Fact.NumRows(), 256, 1)
	c := newConsumer(s, f.plan(t, 2))
	c.Acquire()
	deadline := time.Now().Add(10 * time.Second)
	for c.RowsSeen() < 1000 && time.Now().Before(deadline) {
	}
	c.Release() // detach with partial coverage
	if c.IsDone() {
		t.Skip("scan finished before detach")
	}
	db := f.appendBatch(t, 2000, 300)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	c.Acquire()
	waitDone(t, c)
	c.Release()
	resultsIdentical(t, "detached extend", f.exact(t, 2), c.Snapshot(1.96))
}

// TestExtendManyConsumersManyBatches stresses repeated extension with a mix
// of attached and completed consumers across several appends under worker
// parallelism; every consumer must land on the final table's exact answer.
func TestExtendManyConsumersManyBatches(t *testing.T) {
	f := newIngestFixture(t, 120000, 24)
	s := New(f.db.Fact.NumRows(), 512, 4)
	const n = 6
	consumers := make([]*Consumer, n)
	for i := range consumers {
		consumers[i] = newConsumer(s, f.plan(t, i))
		consumers[i].Acquire()
	}
	for round := 0; round < 4; round++ {
		db := f.appendBatch(t, 1500+500*round, int64(400+round))
		if err := s.Extend(db, db.Fact.NumRows()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for i, c := range consumers {
		waitDone(t, c)
		c.Release()
		resultsIdentical(t, fmt.Sprintf("consumer %d after 4 batches", i), f.exact(t, i), c.Snapshot(1.96))
	}
}

// TestDiscardStopsExtensions: a discarded consumer keeps its coverage but
// is no longer grown by later appends.
func TestDiscardStopsExtensions(t *testing.T) {
	f := newIngestFixture(t, 40000, 25)
	s := New(f.db.Fact.NumRows(), 1024, 2)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	waitDone(t, c)
	c.Release()
	oldRows := int64(f.db.Fact.NumRows())
	c.Discard()
	db := f.appendBatch(t, 1000, 500)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	if !c.IsDone() {
		t.Fatal("discarded consumer must stay complete at its own version")
	}
	if res := c.Snapshot(1.96); res.Watermark != oldRows {
		t.Fatalf("discarded consumer watermark %d, want %d", res.Watermark, oldRows)
	}
}

// TestExtendSnapshotWatermarks polls snapshots across an append: the
// watermark must move from the old to the new version exactly once and
// partial snapshots must stay internally consistent.
func TestExtendSnapshotWatermarks(t *testing.T) {
	f := newIngestFixture(t, 200000, 26)
	oldRows := int64(f.db.Fact.NumRows())
	s := New(f.db.Fact.NumRows(), 256, 2)
	c := newConsumer(s, f.plan(t, 1))
	c.Acquire()
	defer c.Release()
	if w := c.Snapshot(1.96).Watermark; w != oldRows {
		t.Fatalf("pre-append watermark %d, want %d", w, oldRows)
	}
	db := f.appendBatch(t, 4000, 600)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	newRows := int64(db.Fact.NumRows())
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap := c.Snapshot(1.96)
		if snap.Watermark != newRows {
			t.Fatalf("post-append watermark %d, want %d", snap.Watermark, newRows)
		}
		if snap.RowsSeen > snap.TotalRows {
			t.Fatalf("rows seen %d beyond population %d", snap.RowsSeen, snap.TotalRows)
		}
		if c.IsDone() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waitDone(t, c)
	resultsIdentical(t, "watermark poll", f.exact(t, 1), c.Snapshot(1.96))
}

// TestExtendCountBitwise pins the acceptance-criterion contract on the
// scheduler itself: for a COUNT query, the quiesced post-ingest state is
// bitwise identical to a cold scan of the final table (counts are integers,
// so no fold-order slack applies).
func TestExtendCountBitwise(t *testing.T) {
	f := newIngestFixture(t, 60000, 27)
	s := New(f.db.Fact.NumRows(), 512, 3)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	db := f.appendBatch(t, 2500, 700)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	c.Release()
	got := c.Snapshot(1.96)
	want := f.exact(t, 0)
	if len(got.Bins) != len(want.Bins) {
		t.Fatalf("%d bins, want %d", len(got.Bins), len(want.Bins))
	}
	for k, wv := range want.Bins {
		gv, ok := got.Bins[k]
		if !ok || gv.Values[0] != wv.Values[0] {
			t.Fatalf("bin %v: %v, want exactly %v", k, gv, wv.Values[0])
		}
	}
}

// TestExtendNeverBuildsBinCodes drives 200 appends through a scanner holding
// cached (complete, released) and in-flight consumers whose plans bin the
// quantitative column: Extend recompiles every one of them per batch under
// the scheduler lock, so it may extend the derived code columns by the batch
// but must never build one — the lineage's build count stays where the
// StartQuery-style compiles left it — and at each checked watermark every
// consumer's quiesced answer equals a cold prepare of that version: the same
// rows decoded into a fresh table that has no memo at all.
func TestExtendNeverBuildsBinCodes(t *testing.T) {
	f := newIngestFixture(t, 20000, 28)
	hist := func(width float64, aggs ...query.Aggregate) *query.Query {
		return &query.Query{VizName: "h", Table: "tbl",
			Bins: []query.Binning{{Field: "val", Kind: dataset.Quantitative, Width: width}}, Aggs: aggs}
	}
	queries := []*query.Query{
		hist(20, query.Aggregate{Func: query.Count}),
		hist(20, query.Aggregate{Func: query.Avg, Field: "val"}), // same binning, another plan
		{VizName: "heat", Table: "tbl",
			Bins: []query.Binning{{Field: "val", Kind: dataset.Quantitative, Width: 50}, {Field: "cat", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		hist(1, query.Aggregate{Func: query.Count}), // ~700 bins: past a code byte, arithmetic throughout
	}
	compile := func(db *dataset.Database, q *query.Query) *engine.Compiled {
		t.Helper()
		p, err := engine.Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	exact := func(db *dataset.Database, q *query.Query) *query.Result {
		t.Helper()
		p := compile(db, q)
		gs := engine.NewGroupState(p)
		gs.ScanRange(0, p.NumRows)
		return gs.SnapshotExact()
	}
	s := New(f.db.Fact.NumRows(), 512, 2)
	cached := make([]*Consumer, len(queries))
	for i, q := range queries {
		cached[i] = newConsumer(s, compile(f.db, q))
		cached[i].Acquire()
		waitDone(t, cached[i])
		cached[i].Release()
	}
	inflight := newConsumer(s, compile(f.db, queries[0]))
	inflight.Acquire()
	defer inflight.Release()
	val := func() *dataset.Column { return f.db.Fact.Column("val") }
	builds := val().BinCodeBuilds()
	if builds != 2 {
		t.Fatalf("%d builds for two code-sized binnings", builds)
	}

	for i := 0; i < 200; i++ {
		db := f.appendBatch(t, 50+i%7, int64(900+i))
		if err := s.Extend(db, db.Fact.NumRows()); err != nil {
			t.Fatal(err)
		}
		if got := val().BinCodeBuilds(); got != builds {
			t.Fatalf("append %d: Extend built a code column (%d builds, was %d)", i, got, builds)
		}
		if i%25 != 24 {
			continue
		}
		// A fresh table of exactly this version's rows.
		fact, err := dataset.DecodeTable(dataset.EncodeTable(db.Fact))
		if err != nil {
			t.Fatal(err)
		}
		cold := &dataset.Database{Fact: fact}
		for qi, q := range queries {
			c := cached[qi]
			c.Acquire()
			waitDone(t, c)
			c.Release()
			got := c.Snapshot(1.96)
			if got.Watermark != int64(db.Fact.NumRows()) {
				t.Fatalf("append %d query %d: watermark %d, want %d", i, qi, got.Watermark, db.Fact.NumRows())
			}
			resultsIdentical(t, fmt.Sprintf("append %d query %d", i, qi), exact(cold, q), got)
		}
	}
	waitDone(t, inflight)
	resultsIdentical(t, "in-flight histogram", exact(f.db, queries[0]), inflight.Snapshot(1.96))
	if got := val().BinCodeBuilds(); got != builds {
		t.Fatalf("%d builds after 200 appends, want %d", got, builds)
	}
}

// TestConsumerAheadWaitsForExtend: a consumer compiled on a view ahead of
// the scanner (a query racing an append) folds the scanner's rows and is not
// dispatched past them: the workers go idle instead of spinning, and the
// consumer completes exactly once Extend lands.
func TestConsumerAheadWaitsForExtend(t *testing.T) {
	f := newIngestFixture(t, 40000, 29)
	oldRows := f.db.Fact.NumRows()
	s := New(oldRows, 1024, 2)
	db := f.appendBatch(t, 3000, 800)
	c := newConsumer(s, f.plan(t, 1))
	c.Acquire()
	defer c.Release()
	idle := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.idle) == s.workers
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.RowsSeen() < int64(oldRows) || !idle() {
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s: %d of the scanner's %d rows folded, workers idle %v", c.RowsSeen(), oldRows, idle())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if c.RowsSeen() != int64(oldRows) || c.IsDone() {
		t.Fatalf("folded %d rows (done %v) on a scanner of %d", c.RowsSeen(), c.IsDone(), oldRows)
	}
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	res := c.Snapshot(1.96)
	if res.Watermark != int64(db.Fact.NumRows()) {
		t.Fatalf("watermark %d, want %d", res.Watermark, db.Fact.NumRows())
	}
	resultsIdentical(t, "consumer ahead of the scanner", f.exact(t, 1), res)
}
