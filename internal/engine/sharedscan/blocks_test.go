package sharedscan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// blockFixture is a permuted table with a nominal column, two
// integer-valued columns and a float column, grown by appends, for the
// block-aggregate walls. q2 is ival mod 40, except in the last whole block
// of the prepared table, where it spreads over [0, 2000): a 2-D shape
// binning q2 by 10 touches hundreds of slots there, so that block's table
// passes the byte rule, while every other block's stays small.
type blockFixture struct {
	db  *dataset.Database
	app *dataset.TableAppender
}

var blockSchema = dataset.MustSchema([]dataset.Field{
	{Name: "cat", Kind: dataset.Nominal},
	{Name: "ival", Kind: dataset.Quantitative},
	{Name: "val", Kind: dataset.Quantitative},
	{Name: "q2", Kind: dataset.Quantitative},
})

// blockRows builds n rows; ival is an integer in [lo, lo+2000).
func blockRows(t testing.TB, rng *rand.Rand, n int, lo float64, dict *dataset.Dict) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("tbl", blockSchema, n)
	if dict != nil {
		b.SetDict(0, dict)
	}
	for i := 0; i < n; i++ {
		b.AppendString(0, fmt.Sprintf("c%d", rng.Intn(7)))
		ival := lo + float64(rng.Intn(2000))
		b.AppendNum(1, ival)
		b.AppendNum(2, rng.NormFloat64()*50+10)
		b.AppendNum(3, float64((int(ival)%40+40)%40))
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newBlockFixture(t testing.TB, rows int, rng *rand.Rand) *blockFixture {
	tbl, err := dataset.ReorderTable(blockRows(t, rng, rows, -1000, nil), stats.Permutation(rng, rows))
	if err != nil {
		t.Fatal(err)
	}
	if wide := rows/dataset.BlockRows - 1; wide >= 0 {
		q2 := tbl.Column("q2")
		for r := wide * dataset.BlockRows; r < (wide+1)*dataset.BlockRows; r++ {
			q2.Nums[r] = float64(r * 37 % 2000)
		}
		q2.InvalidateMinMax()
	}
	return &blockFixture{db: &dataset.Database{Fact: tbl}, app: dataset.NewTableAppender(tbl, true)}
}

// grow appends n rows with ival in [lo, lo+2000) and returns the new view.
func (f *blockFixture) grow(t testing.TB, rng *rand.Rand, n int, lo float64) *dataset.Database {
	t.Helper()
	view, err := f.app.Append(blockRows(t, rng, n, lo, f.db.Fact.Columns[0].Dict))
	if err != nil {
		t.Fatal(err)
	}
	f.db = &dataset.Database{Fact: view}
	return f.db
}

// blockQueries are unfiltered 1-D plans of five shapes: SUM and AVG of one
// input share one, and so do the two COUNTs.
func blockQueries() []*query.Query {
	byCat := []query.Binning{{Field: "cat", Kind: dataset.Nominal}}
	byIval := []query.Binning{{Field: "ival", Kind: dataset.Quantitative, Width: 100}}
	return named("v", []*query.Query{
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "ival"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "ival"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "ival"}, {Func: query.Max, Field: "val"}, {Func: query.Min, Field: "ival"}}},
		{Bins: byIval, Aggs: []query.Aggregate{{Func: query.Avg, Field: "val"}, {Func: query.Min, Field: "val"}}},
		{Bins: byIval, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Sum, Field: "val"}}},
	})
}

// blockQueries2D are unfiltered 2-D plans of three shapes: nominal ×
// quantitative, and a pair of quantitative dimensions that both read bin
// codes, in both orders. The two shapes binning q2 find the fixture's wide
// block over the byte rule.
func blockQueries2D() []*query.Query {
	byCatIval := []query.Binning{{Field: "cat", Kind: dataset.Nominal}, {Field: "ival", Kind: dataset.Quantitative, Width: 500}}
	byIvalQ2 := []query.Binning{{Field: "ival", Kind: dataset.Quantitative, Width: 500}, {Field: "q2", Kind: dataset.Quantitative, Width: 10}}
	byQ2Ival := []query.Binning{byIvalQ2[1], byIvalQ2[0]}
	return named("w", []*query.Query{
		{Bins: byCatIval, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "ival"}}},
		{Bins: byIvalQ2, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Min, Field: "ival"}, {Func: query.Max, Field: "val"}}},
		{Bins: byQ2Ival, Aggs: []query.Aggregate{{Func: query.Avg, Field: "val"}}},
	})
}

// named gives qs viz names with prefix and the fixture's table.
func named(prefix string, qs []*query.Query) []*query.Query {
	for i, q := range qs {
		q.VizName, q.Table = fmt.Sprintf("%s%d", prefix, i), "tbl"
	}
	return qs
}

// blockExact compares a block-served result with ScanRange's over the same
// view: COUNT, MIN, MAX and the SUM of the integer-valued column bit for bit,
// float SUM and AVG within 1e-9·max(1,|v|).
func blockExact(t *testing.T, label string, db *dataset.Database, q *query.Query, got *query.Result) {
	t.Helper()
	plan, err := engine.Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ref := engine.NewGroupState(plan)
	ref.ScanRange(0, plan.NumRows)
	want := ref.SnapshotExact()
	if !got.Complete || got.RowsSeen != want.RowsSeen || len(got.Bins) != len(want.Bins) {
		t.Fatalf("%s %s: complete=%v rows %d bins %d, want rows %d bins %d",
			label, q.VizName, got.Complete, got.RowsSeen, len(got.Bins), want.RowsSeen, len(want.Bins))
	}
	for k, wv := range want.Bins {
		gv := got.Bins[k]
		if gv == nil {
			t.Fatalf("%s %s: missing bin %v", label, q.VizName, k)
		}
		for i, a := range q.Aggs {
			w, g := wv.Values[i], gv.Values[i]
			bitwise := a.Func != query.Avg && (a.Func != query.Sum || a.Field == "ival")
			if bitwise && math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s %s bin %v %s(%s): %v, ScanRange %v", label, q.VizName, k, a.Func, a.Field, g, w)
			}
			if !bitwise && math.Abs(w-g) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("%s %s bin %v %s(%s): %v, ScanRange %v", label, q.VizName, k, a.Func, a.Field, g, w)
			}
		}
	}
}

// runRound attaches a round of consumers (attachRound), waits for every
// final and checks it; it returns the consumers, still acquired.
func runRound(t *testing.T, s *Scanner, db *dataset.Database, label string, pre int, qs []*query.Query) []*Consumer {
	t.Helper()
	cs := attachRound(t, s, db, pre, qs)
	checkRound(t, db, label, cs)
	return cs
}

// attachRound attaches one consumer per query, each resuming with its first
// pre rows already folded (as after a detach), and returns them, acquired.
func attachRound(t *testing.T, s *Scanner, db *dataset.Database, pre int, qs []*query.Query) []*Consumer {
	t.Helper()
	var cs []*Consumer
	for _, q := range qs {
		plan, err := engine.Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		c := newConsumer(s, plan)
		if pre > 0 {
			s.mu.Lock()
			spans := c.takeLocked(0, pre, nil)
			s.mu.Unlock()
			c.fold(0, spans)
		}
		c.Acquire()
		cs = append(cs, c)
	}
	return cs
}

// checkRound waits for each consumer's final and checks it against
// ScanRange over db (blockExact), and the scanner's ledger (checkLedger).
func checkRound(t *testing.T, db *dataset.Database, label string, cs []*Consumer) {
	t.Helper()
	for _, c := range cs {
		waitDone(t, c)
		blockExact(t, label, db, c.plan.Load().Query, c.Snapshot(1.96))
	}
	if len(cs) > 0 {
		checkLedger(t, label, cs[0].s)
	}
}

// checkLedger fails unless the registry's byte count is the sum of its
// shapes' and within its cap.
func checkLedger(t *testing.T, label string, s *Scanner) {
	t.Helper()
	r := &s.blocks
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for _, e := range r.shapes {
		sum += e.bytes
	}
	if r.bytes != sum || r.bytes > r.limit {
		t.Fatalf("%s: the ledger counts %d B, its %d shapes hold %d B, the cap is %d B", label, r.bytes, len(r.shapes), sum, r.limit)
	}
}

func served(cs []*Consumer) int64 {
	var n int64
	for _, c := range cs {
		n += c.BlockRowsServed()
	}
	return n
}

// TestBlockAggregatesMatchScanRange is the block-aggregate wall: consumers
// of 1-D and 2-D shapes that merge recorded block tables answer as
// ScanRange does — resuming from random prefixes on and off the block grid,
// over a ragged last block, across Extend tails (short ones, then ones that
// fill whole blocks) and across an append that widens a binned column's
// domain, whose plans replace their shapes' tables with tables in the new
// geometry under the same keys — while later rounds are served from the
// tables earlier rounds recorded. The fixture's wide block passes the byte
// rule for the shapes that bin q2: it is folded by every scan and merged by
// none, and every other whole block is merged. One of those shapes has a
// 1-D geometry of 8,000 slots, past BatchRows, whose blocks' slots are
// listed by marking rows rather than by walking the geometry.
func TestBlockAggregatesMatchScanRange(t *testing.T) {
	qs := append(blockQueries(), blockQueries2D()...)
	qs = append(qs, named("x", []*query.Query{{
		Bins: []query.Binning{{Field: "q2", Kind: dataset.Quantitative, Width: 0.25}},
		Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Min, Field: "val"}}}})...)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 24*dataset.BlockRows + rng.Intn(dataset.BlockRows)
		f := newBlockFixture(t, rows, rng)
		s := New(rows, 2)
		label := func(step string) string { return fmt.Sprintf("seed %d %s", seed, step) }

		first := runRound(t, s, f.db, label("recording round"), rng.Intn(rows/dataset.BlockRows)*dataset.BlockRows, qs)
		whole := runRound(t, s, f.db, label("whole round"), 0, qs)
		for _, c := range whole {
			q := c.plan.Load().Query
			want := int64(rows / dataset.BlockRows * dataset.BlockRows)
			if q.Bins[len(q.Bins)-1].Field == "q2" || q.Bins[0].Field == "q2" {
				want -= dataset.BlockRows
			}
			if got := c.BlockRowsServed(); got != want {
				t.Fatalf("seed %d: %s merged %d rows from recorded tables, want %d", seed, q.VizName, got, want)
			}
		}
		onGrid := runRound(t, s, f.db, label("on-grid round"), rng.Intn(rows/dataset.BlockRows)*dataset.BlockRows, qs)
		if served(onGrid) == 0 {
			t.Fatalf("seed %d: the on-grid round merged no recorded block", seed)
		}
		offGrid := runRound(t, s, f.db, label("off-grid round"), 1+rng.Intn(rows-1), qs)
		for _, c := range append(append(first, whole...), onGrid...) {
			c.Release()
			c.Discard()
		}

		// A short tail re-arms the held consumers; then tails that fill
		// whole blocks past the old end.
		for _, n := range []int{500, 2*dataset.BlockRows + 77} {
			db := f.grow(t, rng, n, -1000)
			if err := s.Extend(db, db.Fact.NumRows()); err != nil {
				t.Fatal(err)
			}
			checkRound(t, db, label(fmt.Sprintf("extended by %d", n)), offGrid)
			runRound(t, s, db, label(fmt.Sprintf("after a %d-row tail", n)), rng.Intn(db.Fact.NumRows()), qs)
		}

		// ival values past the column's maximum widen its binned domain, one
		// of the two of each 2-D shape.
		shapes := s.blockShapes()
		db := f.grow(t, rng, dataset.BlockRows, 3000)
		if err := s.Extend(db, db.Fact.NumRows()); err != nil {
			t.Fatal(err)
		}
		checkRound(t, db, label("extended past the ival domain"), offGrid)
		wide := runRound(t, s, db, label("after widening"), 0, qs)
		again := runRound(t, s, db, label("after widening, again"), 0, qs)
		if served(again) <= served(wide) {
			t.Fatalf("seed %d: the widened shapes served %d rows, then %d", seed, served(wide), served(again))
		}
		if n := s.blockShapes(); n != shapes || n != 9 {
			t.Fatalf("seed %d: %d shapes before widening, %d after; want the 9 of the queries both times", seed, shapes, n)
		}
		for _, c := range append(append(offGrid, wide...), again...) {
			c.Release()
		}
	}
}

// TestBlockRegistryIgnoresFilteredAndNonDense: a filtered 1-D plan and an
// unfiltered 2-D plan past the dense slot cap fold every row themselves and
// never create a registry entry.
func TestBlockRegistryIgnoresFilteredAndNonDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newBlockFixture(t, 8*dataset.BlockRows, rng)
	s := New(f.db.Fact.NumRows(), 2)
	qs := []*query.Query{
		{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
			Aggs:   []query.Aggregate{{Func: query.Sum, Field: "ival"}},
			Filter: query.Filter{Predicates: []query.Predicate{{Field: "val", Op: query.OpRange, Lo: -1e9, Hi: 1e9}}}},
		{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}, {Field: "ival", Kind: dataset.Quantitative, Width: 1}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
	}
	for round := 0; round < 2; round++ {
		for _, q := range qs {
			q.VizName, q.Table = "v", "tbl"
			plan, err := engine.Compile(f.db, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := plan.BlockShape(); ok {
				t.Fatalf("%v has a block shape", q.Signature())
			}
			c := newConsumer(s, plan)
			c.Acquire()
			waitDone(t, c)
			c.Release()
			if c.BlockRowsServed() != 0 {
				t.Fatalf("%v served %d rows from block tables", q.Signature(), c.BlockRowsServed())
			}
		}
	}
	if n := len(s.blocks.shapes); n != 0 {
		t.Fatalf("the registry holds %d shapes", n)
	}
}

// TestBlockTablesCapped: a scanner whose ledger is capped at a few tables
// answers every round bit for bit as an uncapped one — its shapes evicted,
// their rows folded, their tables recorded again — and its ledger is the
// sum of its shapes' bytes and within the cap after every claim. Both
// scanners step one shard, so each consumer folds its blocks in the same
// order, and the queries' inputs are integer-valued, so a merged block and
// a folded one give the same bits.
func TestBlockTablesCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := newBlockFixture(t, 16*dataset.BlockRows+300, rng)
	byCat := []query.Binning{{Field: "cat", Kind: dataset.Nominal}}
	qs := named("c", []*query.Query{
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Sum, Field: "ival"}, {Func: query.Avg, Field: "ival"}}},
		{Bins: []query.Binning{{Field: "ival", Kind: dataset.Quantitative, Width: 100}},
			Aggs: []query.Aggregate{{Func: query.Min, Field: "ival"}, {Func: query.Max, Field: "val"}}},
		{Bins: append(byCat, query.Binning{Field: "ival", Kind: dataset.Quantitative, Width: 500}),
			Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "ival"}}},
		{Bins: []query.Binning{{Field: "ival", Kind: dataset.Quantitative, Width: 500}, {Field: "q2", Kind: dataset.Quantitative, Width: 10}},
			Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Max, Field: "ival"}}},
	})
	const limit = 3 << 10
	rows := f.db.Fact.NumRows()
	free, capped := stepped(rows, 1), stepped(rows, 1)
	capped.blocks.limitOf = func(*engine.Compiled) int64 { return limit }
	for round := 0; round < 4; round++ {
		label := fmt.Sprintf("round %d", round)
		want := attachRound(t, free, f.db, 0, qs)
		free.run()
		checkRound(t, f.db, label, want)
		got := attachRound(t, capped, f.db, 0, qs)
		for capped.step(0).c != nil {
			checkLedger(t, label, capped)
		}
		for i, c := range got {
			w, g := want[i].Snapshot(1.96), c.Snapshot(1.96)
			if len(g.Bins) != len(w.Bins) || !g.Complete {
				t.Fatalf("%s %s: %d bins complete=%v, uncapped %d", label, qs[i].VizName, len(g.Bins), g.Complete, len(w.Bins))
			}
			for k, wv := range w.Bins {
				for a, v := range wv.Values {
					if gv := g.Bins[k]; gv == nil || math.Float64bits(gv.Values[a]) != math.Float64bits(v) {
						t.Fatalf("%s %s bin %v agg %d: capped %+v, uncapped %v", label, qs[i].VizName, k, a, gv, v)
					}
				}
			}
			c.Release()
			want[i].Release()
		}
	}
	st, fst := capped.BlockTables(), free.BlockTables()
	if st.Evictions == 0 || st.Cap != limit || st.Bytes > limit {
		t.Fatalf("capped ledger %+v: want evictions under a %d B cap", st, limit)
	}
	if fst.Evictions != 0 || fst.Shapes != len(qs) || fst.Bytes <= limit {
		t.Fatalf("uncapped ledger %+v: want %d shapes, no eviction, more than %d B", fst, len(qs), limit)
	}
}

// TestBlockRegistryReplacesWidenedShape: a plan of a view whose append
// widened the binned domain replaces its shape's entry instead of adding
// one; a plan of the older view then gets no tables and folds its rows,
// while a plan of the newer view finds the replacement.
func TestBlockRegistryReplacesWidenedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := newBlockFixture(t, 4*dataset.BlockRows, rng)
	q := &query.Query{VizName: "v", Table: "tbl",
		Bins: []query.Binning{{Field: "ival", Kind: dataset.Quantitative, Width: 100}},
		Aggs: []query.Aggregate{{Func: query.Count}}}
	compile := func(db *dataset.Database) *engine.Compiled {
		plan, err := engine.Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	old := compile(f.db)
	var r blockRegistry
	b := r.lookup(old)
	if b == nil || r.lookup(compile(f.grow(t, rng, 100, -1000))) != b {
		t.Fatal("an append inside the domain did not keep its shape's tables")
	}
	wide := compile(f.grow(t, rng, 100, 3000))
	nb := r.lookup(wide)
	if nb == nil || nb == b || !nb.Serves(wide) || len(r.shapes) != 1 {
		t.Fatalf("the widened plan got %p (old %p), %d shapes", nb, b, len(r.shapes))
	}
	if r.lookup(old) != nil {
		t.Fatal("a plan of the older view got tables in the widened geometry")
	}
	if r.lookup(wide) != nb {
		t.Fatal("the older view's lookup displaced the widened tables")
	}
}

// TestClaimsStayOnBlockGrid: claims start on the block grid and end on it
// or at the scanner's last row, also after an Extend by 500 rows whose tail
// starts off the grid, and every final is exact over the grown table. A
// round merging the tables a first round recorded claims one block per
// consumer, then twelve at a time, in turn; each first-round consumer then
// claims the tail from the block it starts in.
func TestClaimsStayOnBlockGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := newBlockFixture(t, 40*dataset.BlockRows+300, rng)
	oldRows := f.db.Fact.NumRows()
	s := stepped(oldRows, 2)
	cs := attachRound(t, s, f.db, 0, blockQueries())
	s.run()
	checkRound(t, f.db, "recording round", cs)

	merging := attachRound(t, s, f.db, 0, blockQueries())
	claims := s.run()
	checkRound(t, f.db, "merging recorded tables", merging)
	names := make(map[*Consumer]string)
	var want []string
	for _, w := range []string{"[0,1)", "[1,13)", "[13,25)", "[25,37)", "[37,40+300)"} {
		for i, c := range merging {
			names[c] = fmt.Sprintf("c%d", i)
			want = append(want, names[c]+w)
		}
	}
	checkClaims(t, "merging recorded tables", claims, names, want)
	for _, c := range merging {
		c.Release()
	}

	db := f.grow(t, rng, 500, -1000)
	if err := s.Extend(db, db.Fact.NumRows()); err != nil {
		t.Fatal(err)
	}
	tail := s.run()
	checkRound(t, db, "after the append", cs)
	want = want[:0]
	for i, c := range cs {
		names[c] = fmt.Sprintf("r%d", i)
		want = append(want, names[c]+"[40,40+800)")
		c.Release()
	}
	slices.SortFunc(tail, func(a, b claim) int { return strings.Compare(names[a.c], names[b.c]) })
	checkClaims(t, "the tail, in consumer order", tail, names, want)
}

// blockShapes returns how many shapes the scanner's block registry holds.
func (s *Scanner) blockShapes() int {
	s.blocks.mu.Lock()
	defer s.blocks.mu.Unlock()
	return len(s.blocks.shapes)
}
