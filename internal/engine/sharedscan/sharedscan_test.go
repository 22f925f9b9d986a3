package sharedscan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// fixture builds a permutation-ordered copy of a small table plus compiled
// plans for a few query shapes, mirroring how the progressive engine feeds
// the scheduler.
type fixture struct {
	db      *dataset.Database // permutation-ordered
	queries []*query.Query
}

func newFixture(t testing.TB, rows int, seed int64) *fixture {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat", Kind: dataset.Nominal},
		{Name: "val", Kind: dataset.Quantitative},
	})
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("tbl", schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendString(0, fmt.Sprintf("c%d", rng.Intn(7)))
		b.AppendNum(1, rng.NormFloat64()*50+10)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	perm := stats.Permutation(rng, rows)
	re, err := dataset.ReorderTable(tbl, perm)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		db: &dataset.Database{Fact: re},
		queries: []*query.Query{
			{
				VizName: "count", Table: "tbl",
				Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
				Aggs: []query.Aggregate{{Func: query.Count}},
			},
			{
				VizName: "avg", Table: "tbl",
				Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
				Aggs: []query.Aggregate{{Func: query.Avg, Field: "val"}},
			},
			{
				VizName: "filtered", Table: "tbl",
				Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
				Aggs: []query.Aggregate{{Func: query.Sum, Field: "val"}},
				Filter: query.Filter{Predicates: []query.Predicate{
					{Field: "val", Op: query.OpRange, Lo: -20, Hi: 60},
				}},
			},
		},
	}
}

func (f *fixture) plan(t testing.TB, i int) *engine.Compiled {
	t.Helper()
	p, err := engine.Compile(f.db, f.queries[i%len(f.queries)])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newConsumer attaches a consumer keyed by its plan's query signature, as
// the progressive session does.
func newConsumer(s *Scanner, p *engine.Compiled) *Consumer {
	return s.NewConsumer(p, p.Query.Signature(), nil)
}

func (f *fixture) exact(t testing.TB, i int) *query.Result {
	t.Helper()
	p := f.plan(t, i)
	gs := engine.NewGroupState(p)
	gs.ScanRange(0, p.NumRows)
	return gs.SnapshotExact()
}

func waitDone(t testing.TB, c *Consumer) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("consumer did not complete")
	}
}

// resultsIdentical compares COUNT-style results exactly and value-carrying
// results within floating tolerance from fold-order differences.
func resultsIdentical(t *testing.T, label string, want, got *query.Result) {
	t.Helper()
	if len(want.Bins) != len(got.Bins) {
		t.Fatalf("%s: %d bins, want %d", label, len(got.Bins), len(want.Bins))
	}
	for k, wv := range want.Bins {
		gv, ok := got.Bins[k]
		if !ok {
			t.Fatalf("%s: missing bin %v", label, k)
		}
		for i := range wv.Values {
			diff := wv.Values[i] - gv.Values[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-9*(1+absf(wv.Values[i])) {
				t.Fatalf("%s: bin %v agg %d: %v vs %v", label, k, i, gv.Values[i], wv.Values[i])
			}
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestSingleConsumerCompletesExactly(t *testing.T) {
	f := newFixture(t, 12*dataset.BlockRows, 1)
	s := New(f.db.Fact.NumRows(), 4)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	waitDone(t, c)
	c.Release()
	res := c.Snapshot(1.96)
	if !res.Complete {
		t.Fatal("completed consumer should report a complete result")
	}
	resultsIdentical(t, "single", f.exact(t, 0), res)
	if c.Progress() != 1 {
		t.Errorf("progress %v, want 1", c.Progress())
	}
}

func TestConcurrentConsumersMatchIndependentScans(t *testing.T) {
	f := newFixture(t, 20*dataset.BlockRows, 2)
	s := New(f.db.Fact.NumRows(), 4)
	const n = 9
	consumers := make([]*Consumer, n)
	for i := range consumers {
		consumers[i] = newConsumer(s, f.plan(t, i))
		consumers[i].Acquire()
	}
	for i, c := range consumers {
		waitDone(t, c)
		c.Release()
		resultsIdentical(t, fmt.Sprintf("consumer %d", i), f.exact(t, i), c.Snapshot(1.96))
	}
}

// TestLateAttachExact attaches a second consumer after the first has
// folded rows: both complete, and the late one's result is exact.
func TestLateAttachExact(t *testing.T) {
	f := newFixture(t, 49*dataset.BlockRows, 3)
	s := New(f.db.Fact.NumRows(), 2)
	first := newConsumer(s, f.plan(t, 0))
	first.Acquire()
	// Wait until the first consumer has folded rows before attaching the
	// second.
	deadline := time.Now().Add(5 * time.Second)
	for first.RowsSeen() == 0 && time.Now().Before(deadline) {
	}
	second := newConsumer(s, f.plan(t, 1))
	second.Acquire()
	waitDone(t, first)
	waitDone(t, second)
	first.Release()
	second.Release()
	resultsIdentical(t, "late attach", f.exact(t, 1), second.Snapshot(1.96))
}

// TestDetachResume cancels a consumer mid-scan, verifies its coverage is
// retained, then reattaches and checks the completed result is exact — the
// reuse-cache semantics of the progressive engine. A foreground handle
// (Acquire/Release) and a speculation round (Speculate/Unspeculate) detach
// and resume alike.
func TestDetachResume(t *testing.T) {
	for _, tc := range []struct {
		name           string
		attach, detach func(*Consumer)
	}{
		{"foreground", (*Consumer).Acquire, (*Consumer).Release},
		{"speculative", (*Consumer).Speculate, (*Consumer).Unspeculate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 73*dataset.BlockRows, 4)
			s := New(f.db.Fact.NumRows(), 1)
			c := newConsumer(s, f.plan(t, 2))
			tc.attach(c)
			deadline := time.Now().Add(10 * time.Second)
			for c.RowsSeen() < 1000 && time.Now().Before(deadline) {
			}
			tc.detach(c) // no attachment left: detaches
			seen := c.RowsSeen()
			if seen == 0 {
				t.Skip("machine too fast to catch a partial state")
			}
			if c.IsDone() {
				t.Skip("scan finished before detach")
			}
			// Detached: progress must stop (allow in-flight folds to drain first).
			time.Sleep(20 * time.Millisecond)
			settled := c.RowsSeen()
			time.Sleep(50 * time.Millisecond)
			if c.RowsSeen() != settled {
				t.Fatalf("detached consumer kept scanning: %d -> %d", settled, c.RowsSeen())
			}
			snap := c.Snapshot(1.96)
			if snap.Complete || snap.RowsSeen != settled {
				t.Fatalf("partial snapshot rows %d complete=%v, want %d rows partial",
					snap.RowsSeen, snap.Complete, settled)
			}
			// Resume and complete; every row must be folded exactly once.
			tc.attach(c)
			waitDone(t, c)
			tc.detach(c)
			resultsIdentical(t, "resume", f.exact(t, 2), c.Snapshot(1.96))
		})
	}
}

// TestSpeculativeConsumerRunsInThinkTime verifies a Speculate-attached
// consumer makes progress with no foreground handles and survives
// foreground Release (the regression shape of the old speculator lifecycle
// bug, where a finished round left speculation dead forever).
func TestSpeculativeConsumerRunsInThinkTime(t *testing.T) {
	f := newFixture(t, 24*dataset.BlockRows, 5)
	s := New(f.db.Fact.NumRows(), 2)
	spec := newConsumer(s, f.plan(t, 1))
	spec.Speculate()
	waitDone(t, spec)
	resultsIdentical(t, "speculative round 1", f.exact(t, 1), spec.Snapshot(1.96))

	// A second speculation round after the first completed must still run.
	spec2 := newConsumer(s, f.plan(t, 2))
	spec2.Speculate()
	waitDone(t, spec2)
	resultsIdentical(t, "speculative round 2", f.exact(t, 2), spec2.Snapshot(1.96))
}

// TestSpeculationYieldsToForeground pins IDEA's scheduling invariant:
// speculative consumers are suspended while a foreground consumer is
// attached, and resume afterwards. A consumer that is both acquired and
// speculated is foreground. One worker keeps fold ordering deterministic: a
// foreground consumer's final fold (and finish) lands before any resumed
// speculative fold, so no speculative claim falls between the foreground
// consumer's first claim and its last, and the speculative progress
// observed while the foreground query is incomplete is bounded by the one
// speculative claim that may be in flight when the query arrives.
func TestSpeculationYieldsToForeground(t *testing.T) {
	type claim struct {
		c      *Consumer
		lo, hi int
	}
	for _, tc := range []struct {
		name     string
		alsoSpec bool
	}{{"acquired", false}, {"acquired+speculated", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 98*dataset.BlockRows, 9)
			s := New(f.db.Fact.NumRows(), 1)
			var claims []claim // guarded by s.mu
			s.onClaim = func(c *Consumer, lo, hi int) { claims = append(claims, claim{c, lo, hi}) }
			spec := newConsumer(s, f.plan(t, 1))
			spec.Speculate()
			deadline := time.Now().Add(10 * time.Second)
			for spec.RowsSeen() == 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
			if spec.IsDone() {
				t.Skip("speculation finished before the foreground query could interrupt")
			}
			fg := newConsumer(s, f.plan(t, 0))
			fg.Acquire()
			if tc.alsoSpec {
				fg.Speculate()
			}
			base := spec.RowsSeen()
			var advanced int64
			for !fg.IsDone() {
				cur := spec.RowsSeen()
				if fg.IsDone() {
					break
				}
				advanced = max(advanced, cur-base)
				time.Sleep(50 * time.Microsecond)
			}
			fg.Release()
			s.mu.Lock()
			first, last := -1, -1
			for i, cl := range claims {
				if cl.c == fg {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			inFlight := 0 // the last speculative claim before the foreground's first
			for i, cl := range claims[:max(first, 0)] {
				if cl.c == spec {
					inFlight = i
				}
			}
			slackRows := int64(claims[inFlight].hi - claims[inFlight].lo)
			for _, cl := range claims[max(first, 0) : last+1] {
				if cl.c != fg {
					s.mu.Unlock()
					t.Fatalf("speculation claimed [%d, %d) while a foreground query was active", cl.lo, cl.hi)
				}
			}
			s.mu.Unlock()
			if advanced > slackRows {
				t.Fatalf("speculation advanced %d rows while a foreground query was active, past the %d of its claim in flight", advanced, slackRows)
			}
			resultsIdentical(t, "foreground", f.exact(t, 0), fg.Snapshot(1.96))
			waitDone(t, spec) // suspended targets must resume once foreground drains
			resultsIdentical(t, "resumed speculation", f.exact(t, 1), spec.Snapshot(1.96))
		})
	}
}

func TestEmptyTableConsumerIsDoneImmediately(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{{Name: "v", Kind: dataset.Quantitative}})
	tbl, err := dataset.NewBuilder("tbl", schema, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &dataset.Database{Fact: tbl}
	plan, err := engine.Compile(db, &query.Query{
		VizName: "v", Table: "tbl",
		Bins: []query.Binning{{Field: "v", Kind: dataset.Quantitative, Width: 1}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(0, 4)
	c := newConsumer(s, plan)
	if !c.IsDone() {
		t.Fatal("empty-table consumer should be born complete")
	}
	c.Acquire()
	c.Release()
	if res := c.Snapshot(1.96); !res.Complete {
		t.Error("empty-table snapshot should be complete")
	}
}

// TestPartialSnapshotConsistency asserts RowsSeen in a partial snapshot
// always equals the rows actually merged: total COUNT across bins of an
// unfiltered COUNT query scaled back must equal RowsSeen exactly.
func TestPartialSnapshotConsistency(t *testing.T) {
	f := newFixture(t, 98*dataset.BlockRows, 6)
	s := New(f.db.Fact.NumRows(), 4)
	c := newConsumer(s, f.plan(t, 0))
	c.Acquire()
	defer c.Release()
	polls := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !c.IsDone() && polls < 50 {
		snap := c.Snapshot(1.96)
		if snap.RowsSeen == 0 {
			continue
		}
		polls++
		var rawCount float64
		for _, bv := range snap.Bins {
			rawCount += bv.Values[0]
		}
		// Values are scaled by total/seen; unscale to recover raw rows.
		raw := rawCount * float64(snap.RowsSeen) / float64(snap.TotalRows)
		diff := raw - float64(snap.RowsSeen)
		if diff < -0.5 || diff > 0.5 {
			t.Fatalf("snapshot merged %v raw rows but reports RowsSeen %d", raw, snap.RowsSeen)
		}
	}
	waitDone(t, c)
}

// TestWhenDoneFiresOnceEvenWhenAlreadyDone covers both callback paths, and
// that each hands over the final of the completed version.
func TestWhenDoneFiresOnceEvenWhenAlreadyDone(t *testing.T) {
	f := newFixture(t, 5*dataset.BlockRows, 7)
	s := New(f.db.Fact.NumRows(), 2)
	c := newConsumer(s, f.plan(t, 0))
	fired := make(chan *Final, 2)
	c.WhenDone(func(final *Final) { fired <- final })
	c.Acquire()
	waitDone(t, c)
	c.Release()
	c.WhenDone(func(final *Final) { fired <- final }) // already done: immediate
	for i := 0; i < 2; i++ {
		select {
		case final := <-fired:
			if final == nil || final.rows != int64(f.db.Fact.NumRows()) {
				t.Fatalf("callback %d got final %+v, want one at %d rows", i, final, f.db.Fact.NumRows())
			}
		case <-time.After(5 * time.Second):
			t.Fatal("WhenDone callback did not fire")
		}
	}
}

// TestWhenDoneDeregister asserts a withdrawn callback never fires and that
// deregistration after completion is a harmless no-op — the cancelled-handle
// hygiene path of the progressive engine.
func TestWhenDoneDeregister(t *testing.T) {
	f := newFixture(t, 7*dataset.BlockRows, 10)
	s := New(f.db.Fact.NumRows(), 2)
	c := newConsumer(s, f.plan(t, 0))
	fired := false
	deregister := c.WhenDone(func(*Final) { fired = true })
	deregister()
	kept := make(chan struct{})
	deregLate := c.WhenDone(func(*Final) { close(kept) })
	c.Acquire()
	waitDone(t, c)
	c.Release()
	select {
	case <-kept:
	case <-time.After(5 * time.Second):
		t.Fatal("registered callback did not fire")
	}
	if fired {
		t.Error("deregistered callback fired anyway")
	}
	deregLate() // after completion: must be a no-op
}

// TestMergeShardsBitwiseAgainstSequential checks that when only one worker
// runs, the shared-scan accumulation is bitwise identical to a plain
// sequential ScanRange (same fold order, single shard).
func TestMergeShardsBitwiseAgainstSequential(t *testing.T) {
	f := newFixture(t, 15*dataset.BlockRows, 8)
	plan := f.plan(t, 1)
	s := New(f.db.Fact.NumRows(), 1)
	c := newConsumer(s, plan)
	c.Acquire()
	waitDone(t, c)
	c.Release()
	ref := engine.NewGroupState(f.plan(t, 1))
	ref.ScanRange(0, plan.NumRows)
	merged, _ := c.mergeShards()
	if ref.NumGroups() != merged.NumGroups() {
		t.Fatalf("%d groups, want %d", merged.NumGroups(), ref.NumGroups())
	}
	got := make(map[query.BinKey]int64)
	merged.ForEachBin(func(k query.BinKey, acc engine.Accum) { got[k] = acc.N })
	ref.ForEachBin(func(k query.BinKey, want engine.Accum) {
		n, ok := got[k]
		if !ok {
			t.Fatalf("missing bin %v", k)
		}
		if n != want.N {
			t.Fatalf("bin %v: N %d, want %d", k, n, want.N)
		}
	})
}

// dispatchFixture is a block fixture of 64 whole blocks, a scanner of one
// worker over it with COUNT BY cat's block tables recorded, and the two
// ends of the cost range: cheap, COUNT BY cat, merges those tables; dear,
// an unfiltered 2-D AVG with three more aggregates, folds every row. Its
// four aggregates keep its sweep at a few milliseconds, so a test goroutine
// held off its core for a millisecond or two does not miss it whole.
func dispatchFixture(t testing.TB) (f *blockFixture, s *Scanner, cheap, dear *engine.Compiled) {
	t.Helper()
	f = newBlockFixture(t, 64*dataset.BlockRows, rand.New(rand.NewSource(13)))
	compile := func(q *query.Query) *engine.Compiled {
		q.VizName, q.Table = "v", "tbl"
		p, err := engine.Compile(f.db, q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cheap = compile(&query.Query{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}}})
	dear = compile(&query.Query{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal},
		{Field: "ival", Kind: dataset.Quantitative, Width: 100}},
		Aggs: []query.Aggregate{{Func: query.Avg, Field: "val"}, {Func: query.Avg, Field: "ival"},
			{Func: query.Min, Field: "val"}, {Func: query.Max, Field: "val"}}})
	s = New(f.db.Fact.NumRows(), 1)
	rec := newConsumer(s, cheap)
	rec.Acquire()
	waitDone(t, rec)
	rec.Release()
	return f, s, cheap, dear
}

// exactOf is plan's answer from a plain sequential scan.
func exactOf(plan *engine.Compiled) *query.Result {
	gs := engine.NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	return gs.SnapshotExact()
}

// TestCheapConsumerFinishesFirst: on one worker, a consumer that merges
// recorded block tables and an unfiltered 2-D AVG attached together, the
// AVG first: the cheap one completes while the AVG has folded less than
// half its rows, as it is served first while it has attained less
// service. Both answers are exact.
func TestCheapConsumerFinishesFirst(t *testing.T) {
	f, s, cheapPlan, dearPlan := dispatchFixture(t)
	rows := int64(f.db.Fact.NumRows())
	dear := newConsumer(s, dearPlan)
	cheap := newConsumer(s, cheapPlan)
	// The callback runs on the worker, right after the cheap consumer's
	// last fold and before the worker claims again.
	dearSeen := make(chan int64, 1)
	cheap.WhenDone(func(*Final) { dearSeen <- dear.RowsSeen() })
	dear.Acquire()
	cheap.Acquire()
	waitDone(t, cheap)
	waitDone(t, dear)
	cheap.Release()
	dear.Release()
	if got := cheap.BlockRowsServed(); got != rows {
		t.Fatalf("the cheap consumer merged %d of %d rows from block tables", got, rows)
	}
	if seen := <-dearSeen; 2*seen >= rows {
		t.Fatalf("the cheap consumer completed after the 2-D AVG had folded %d of %d rows", seen, rows)
	}
	resultsIdentical(t, "cheap", exactOf(cheapPlan), cheap.Snapshot(1.96))
	resultsIdentical(t, "2-D AVG", exactOf(dearPlan), dear.Snapshot(1.96))
}

// TestExpensiveConsumerNotStarved: on one worker, while cheap consumers
// attach one after another, each as soon as the one before completes, an
// unfiltered 2-D AVG still completes with the exact answer, three times
// over.
func TestExpensiveConsumerNotStarved(t *testing.T) {
	_, s, cheapPlan, dearPlan := dispatchFixture(t)
	wantCheap, wantDear := exactOf(cheapPlan), exactOf(dearPlan)
	for round := 0; round < 3; round++ {
		dear := newConsumer(s, dearPlan)
		dear.Acquire()
		cheapRuns := 0
		deadline := time.Now().Add(30 * time.Second)
		for !dear.IsDone() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the 2-D AVG folded %d rows in 30 s beside %d cheap consumers",
					round, dear.RowsSeen(), cheapRuns)
			}
			c := newConsumer(s, cheapPlan)
			c.Acquire()
			waitDone(t, c)
			c.Release()
			resultsIdentical(t, fmt.Sprintf("round %d cheap %d", round, cheapRuns), wantCheap, c.Snapshot(1.96))
			cheapRuns++
		}
		dear.Release()
		resultsIdentical(t, fmt.Sprintf("round %d 2-D AVG", round), wantDear, dear.Snapshot(1.96))
		if cheapRuns < 2 {
			t.Fatalf("round %d: only %d cheap consumers ran beside the 2-D AVG", round, cheapRuns)
		}
	}
}

// BenchmarkClaimOverhead prices a claim's fixed cost: one worker scans a
// COUNT whose 64 blocks all merge recorded block tables, one block a claim
// (its attained service is preset far past its rows, so claimBlocks stays
// at one), and the same merges run directly are subtracted. What is left
// per claim is the lock, the pick, takeLocked, the gate, the clock reads,
// the ScanRangeReusing call and the Gosched (ns/claim).
func BenchmarkClaimOverhead(b *testing.B) {
	f, s, plan, _ := dispatchFixture(b)
	blocks := f.db.Fact.NumRows() / dataset.BlockRows
	tables := s.blocks.lookup(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newConsumer(s, plan)
		c.attained.Store(1 << 50)
		c.Acquire()
		<-c.Done()
		c.Release()
	}
	scanned := b.Elapsed()
	b.StopTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		gs := engine.NewGroupState(plan)
		for k := 0; k < blocks; k++ {
			gs.ScanRangeReusing(k*dataset.BlockRows, (k+1)*dataset.BlockRows, tables, nil)
		}
	}
	direct := time.Since(start)
	b.ReportMetric(float64(scanned-direct)/float64(b.N*blocks), "ns/claim")
}
