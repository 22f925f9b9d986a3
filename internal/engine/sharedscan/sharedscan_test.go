package sharedscan

import (
	"fmt"
	"math/rand"
	"slices"
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
	return exactOf(f.plan(t, i))
}

func waitDone(t testing.TB, c *Consumer) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("consumer did not complete")
	}
}

// stepped returns a scanner that starts no worker: its claims run when a
// test steps them. A fold is charged 8 ns a row it folds and 1 ns a row it
// merges from a block table, so the claims depend only on the fixture.
func stepped(numRows, workers int) *Scanner {
	s := New(numRows, workers)
	s.idle = nil
	s.charge = func(_ time.Time, rows, merged int) time.Duration {
		return time.Duration(8*(rows-merged) + merged)
	}
	return s
}

// claim is one claim a step made: consumer c was served the window [lo, hi).
type claim struct {
	c      *Consumer
	lo, hi int
}

// step makes the claim a worker would make next and folds it into shard w;
// the zero claim when no consumer is dispatchable.
func (s *Scanner) step(w int) claim {
	s.mu.Lock()
	c, lo, hi, spans := s.claimLocked(nil)
	s.mu.Unlock()
	if c != nil {
		c.fold(w, spans)
	}
	return claim{c, lo, hi}
}

// run steps the scanner, its shards in turn, until no consumer is
// dispatchable, and returns the claims.
func (s *Scanner) run() (claims []claim) {
	for w := 0; ; w = (w + 1) % s.workers {
		cl := s.step(w)
		if cl.c == nil {
			return claims
		}
		claims = append(claims, cl)
	}
}

// blockClaims are name's one-block claims of blocks [from, to).
func blockClaims(name string, from, to int) []string {
	var out []string
	for b := from; b < to; b++ {
		out = append(out, fmt.Sprintf("%s[%d,%d)", name, b, b+1))
	}
	return out
}

// checkClaims fails unless claims, written as name[lo,hi) in blocks (a bound
// past the last whole block as blocks+rows), are exactly want.
func checkClaims(t *testing.T, label string, claims []claim, names map[*Consumer]string, want []string) {
	t.Helper()
	at := func(r int) string {
		if r%dataset.BlockRows == 0 {
			return fmt.Sprint(r / dataset.BlockRows)
		}
		return fmt.Sprintf("%d+%d", r/dataset.BlockRows, r%dataset.BlockRows)
	}
	got := make([]string, len(claims))
	for i, cl := range claims {
		got[i] = fmt.Sprintf("%s[%s,%s)", names[cl.c], at(cl.lo), at(cl.hi))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: claimed\n%v\nwant\n%v", label, got, want)
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
// folded a block: the two then alternate, one block a claim, the earlier
// attached first on a tie, over both shards, and both answers are exact.
func TestLateAttachExact(t *testing.T) {
	f := newFixture(t, 49*dataset.BlockRows, 3)
	s := stepped(f.db.Fact.NumRows(), 2)
	first := newConsumer(s, f.plan(t, 0))
	first.Acquire()
	claims := []claim{s.step(1)}
	second := newConsumer(s, f.plan(t, 1))
	second.Acquire()
	claims = append(claims, s.run()...)
	first.Release()
	second.Release()
	want := blockClaims("first", 0, 1)
	for b := 0; b < 49; b++ {
		want = slices.Concat(want, blockClaims("second", b, b+1), blockClaims("first", b+1, min(b+2, 49)))
	}
	checkClaims(t, "late attach", claims, map[*Consumer]string{first: "first", second: "second"}, want)
	resultsIdentical(t, "first", f.exact(t, 0), first.Snapshot(1.96))
	resultsIdentical(t, "late attach", f.exact(t, 1), second.Snapshot(1.96))
}

// TestDetachResume cancels a consumer after three claims: it is claimed no
// more, its snapshot is the partial of exactly those blocks, and once it
// reattaches it resumes at the fourth block and completes exactly — the
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
			s := stepped(f.db.Fact.NumRows(), 1)
			c := newConsumer(s, f.plan(t, 2))
			tc.attach(c)
			claims := []claim{s.step(0), s.step(0), s.step(0)}
			tc.detach(c) // no attachment left: detaches
			if cl := s.step(0); cl.c != nil {
				t.Fatalf("a detached consumer was claimed [%d, %d)", cl.lo, cl.hi)
			}
			const seen = 3 * dataset.BlockRows
			snap := c.Snapshot(1.96)
			if c.RowsSeen() != seen || snap.Complete || snap.RowsSeen != seen {
				t.Fatalf("detached at %d rows, partial snapshot of %d rows complete=%v; want %d rows partial",
					c.RowsSeen(), snap.RowsSeen, snap.Complete, seen)
			}
			// Resume and complete; every row must be folded exactly once.
			tc.attach(c)
			claims = append(claims, s.run()...)
			tc.detach(c)
			checkClaims(t, "detach and resume", claims, map[*Consumer]string{c: "c"}, blockClaims("c", 0, 73))
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
// speculated is foreground. The speculation has claimed a block when the
// query arrives; the query then takes every claim until it is fully
// assigned, though the two tie on service after its first, and only then
// does speculation resume.
func TestSpeculationYieldsToForeground(t *testing.T) {
	for _, tc := range []struct {
		name     string
		alsoSpec bool
	}{{"acquired", false}, {"acquired+speculated", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 98*dataset.BlockRows, 9)
			s := stepped(f.db.Fact.NumRows(), 1)
			spec := newConsumer(s, f.plan(t, 1))
			spec.Speculate()
			claims := []claim{s.step(0)}
			fg := newConsumer(s, f.plan(t, 0))
			fg.Acquire()
			if tc.alsoSpec {
				fg.Speculate()
			}
			claims = append(claims, s.run()...)
			fg.Release()
			want := slices.Concat(blockClaims("spec", 0, 1), blockClaims("fg", 0, 98), blockClaims("spec", 1, 98))
			checkClaims(t, "speculation beside a query", claims, map[*Consumer]string{spec: "spec", fg: "fg"}, want)
			resultsIdentical(t, "foreground", f.exact(t, 0), fg.Snapshot(1.96))
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

// dispatchFixture is a block fixture of 64 whole blocks and the two ends
// of the cost range: cheap, COUNT BY cat, merges block tables once they are
// recorded; dear, an unfiltered 2-D AVG with three more aggregates, folds
// every row. s is a stepped scanner of one shard over it with cheap's block
// tables recorded.
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
	s = stepped(f.db.Fact.NumRows(), 1)
	rec := newConsumer(s, cheap)
	rec.Acquire()
	s.run()
	rec.Release()
	return f, s, cheap, dear
}

// exactOf is plan's answer from a plain sequential scan.
func exactOf(plan *engine.Compiled) *query.Result {
	gs := engine.NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	return gs.SnapshotExact()
}

// cheapBeside is the claims of a cheap consumer beside a dear one attached
// first. A folded block is charged 32,768 ns, a merged one 4,096; each claim
// goes to the less served, the dear one on a tie, and takes one block, then
// as many as fit claimBudget at its consumer's charge: one dear, twelve cheap.
var cheapBeside = []string{
	"dear[0,1)", "cheap[0,1)", "cheap[1,13)", "dear[1,2)", "cheap[13,25)", "dear[2,3)", "dear[3,4)",
	"cheap[25,37)", "dear[4,5)", "cheap[37,49)", "dear[5,6)", "dear[6,7)", "cheap[49,61)", "dear[7,8)",
	"cheap[61,64)",
}

// TestCheapConsumerFinishesFirst: a consumer that merges recorded block
// tables and an unfiltered 2-D AVG attached together, the AVG first: the
// cheap one completes when the AVG has folded 8 of its 64 blocks, as it is
// served whenever it has attained less service. Both answers are exact.
func TestCheapConsumerFinishesFirst(t *testing.T) {
	f, s, cheapPlan, dearPlan := dispatchFixture(t)
	rows := int64(f.db.Fact.NumRows())
	dear := newConsumer(s, dearPlan)
	cheap := newConsumer(s, cheapPlan)
	dear.Acquire()
	cheap.Acquire()
	claims := s.run()
	cheap.Release()
	dear.Release()
	checkClaims(t, "cheap beside dear", claims, map[*Consumer]string{cheap: "cheap", dear: "dear"},
		slices.Concat(cheapBeside, blockClaims("dear", 8, 64)))
	if got := cheap.BlockRowsServed(); got != rows {
		t.Fatalf("the cheap consumer merged %d of %d rows from block tables", got, rows)
	}
	resultsIdentical(t, "cheap", exactOf(cheapPlan), cheap.Snapshot(1.96))
	resultsIdentical(t, "2-D AVG", exactOf(dearPlan), dear.Snapshot(1.96))
}

// TestExpensiveConsumerNotStarved: while cheap consumers attach one after
// another, each one claim after the one before completes (the claim a free
// worker makes before the next query arrives), an unfiltered 2-D AVG still
// completes exactly, three times over: every cheap consumer after the first
// completes below the AVG's service, which then takes one block.
func TestExpensiveConsumerNotStarved(t *testing.T) {
	_, s, cheapPlan, dearPlan := dispatchFixture(t)
	wantCheap, wantDear := exactOf(cheapPlan), exactOf(dearPlan)
	want := slices.Concat(cheapBeside, []string{"dear[8,9)"})
	for k := 2; k <= 56; k++ {
		want = append(want, "cheap[0,1)", "cheap[1,13)", "cheap[13,25)", "cheap[25,37)", "cheap[37,49)",
			"cheap[49,61)", "cheap[61,64)", fmt.Sprintf("dear[%d,%d)", k+7, k+8))
	}
	for round := 0; round < 3; round++ {
		dear := newConsumer(s, dearPlan)
		dear.Acquire()
		names := map[*Consumer]string{dear: "dear"}
		var claims []claim
		for cheapRuns := 0; !dear.IsDone(); cheapRuns++ {
			c := newConsumer(s, cheapPlan)
			names[c] = "cheap"
			c.Acquire()
			for !c.IsDone() {
				cl := s.step(0)
				if cl.c == nil {
					t.Fatalf("round %d: cheap consumer %d is not done and not dispatchable", round, cheapRuns)
				}
				claims = append(claims, cl)
			}
			c.Release()
			resultsIdentical(t, fmt.Sprintf("round %d cheap %d", round, cheapRuns), wantCheap, c.Snapshot(1.96))
			if cl := s.step(0); cl.c != nil {
				claims = append(claims, cl)
			}
		}
		dear.Release()
		checkClaims(t, fmt.Sprintf("round %d", round), claims, names, want)
		resultsIdentical(t, fmt.Sprintf("round %d 2-D AVG", round), wantDear, dear.Snapshot(1.96))
	}
}

// BenchmarkClaimOverhead prices a claim's fixed cost: one worker scans a
// COUNT whose 64 blocks all merge recorded block tables, one block a claim
// (its attained service is preset far past its rows, so claimBlocks stays
// at one), and the same merges run directly are subtracted. What is left
// per claim is the lock, the pick, takeLocked, the gate, the charge, the
// ScanRangeReusing call and the Gosched (ns/claim). It runs a real worker
// charged by the wall clock, as the product does.
func BenchmarkClaimOverhead(b *testing.B) {
	f, _, plan, _ := dispatchFixture(b)
	blocks := f.db.Fact.NumRows() / dataset.BlockRows
	s := New(f.db.Fact.NumRows(), 1)
	rec := newConsumer(s, plan)
	rec.Acquire()
	waitDone(b, rec)
	rec.Release()
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
