package sharedscan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// blockFixture is a permuted table with a nominal column, an integer-valued
// column and a float column, grown by appends, for the block-aggregate walls.
type blockFixture struct {
	db  *dataset.Database
	app *dataset.TableAppender
}

var blockSchema = dataset.MustSchema([]dataset.Field{
	{Name: "cat", Kind: dataset.Nominal},
	{Name: "ival", Kind: dataset.Quantitative},
	{Name: "val", Kind: dataset.Quantitative},
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
		b.AppendNum(1, lo+float64(rng.Intn(2000)))
		b.AppendNum(2, rng.NormFloat64()*50+10)
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
	qs := []*query.Query{
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "ival"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "ival"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "ival"}, {Func: query.Max, Field: "val"}, {Func: query.Min, Field: "ival"}}},
		{Bins: byIval, Aggs: []query.Aggregate{{Func: query.Avg, Field: "val"}, {Func: query.Min, Field: "val"}}},
		{Bins: byIval, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Sum, Field: "val"}}},
	}
	for i, q := range qs {
		q.VizName, q.Table = fmt.Sprintf("v%d", i), "tbl"
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

// runRound attaches one consumer per query, each resuming with its first
// pre rows already folded (as after a detach), waits for every final and
// checks it; it returns the consumers, still acquired.
func runRound(t *testing.T, s *Scanner, db *dataset.Database, label string, pre int) []*Consumer {
	t.Helper()
	var cs []*Consumer
	for _, q := range blockQueries() {
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
	checkRound(t, db, label, cs)
	return cs
}

func checkRound(t *testing.T, db *dataset.Database, label string, cs []*Consumer) {
	t.Helper()
	for i, c := range cs {
		waitDone(t, c)
		blockExact(t, label, db, blockQueries()[i], c.Snapshot(1.96))
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
// that merge recorded block tables answer as ScanRange does — resuming from
// random prefixes on and off the chunk grid, over a ragged last block, across
// Extend tails (short ones, then ones that fill whole blocks) and across an
// append that widens a binned column's domain, whose plans replace their
// shapes' tables with tables in the new geometry under the same keys — while
// later rounds are served from the tables earlier rounds recorded.
func TestBlockAggregatesMatchScanRange(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 24*engine.BatchRows + rng.Intn(engine.BatchRows)
		f := newBlockFixture(t, rows, rng)
		s := New(rows, engine.BatchRows, 2)
		label := func(step string) string { return fmt.Sprintf("seed %d %s", seed, step) }

		first := runRound(t, s, f.db, label("recording round"), rng.Intn(rows/engine.BatchRows)*engine.BatchRows)
		onGrid := runRound(t, s, f.db, label("on-grid round"), rng.Intn(rows/engine.BatchRows)*engine.BatchRows)
		if served(onGrid) == 0 {
			t.Fatalf("seed %d: the second round merged no recorded block", seed)
		}
		offGrid := runRound(t, s, f.db, label("off-grid round"), 1+rng.Intn(rows-1))
		for _, c := range append(first, onGrid...) {
			c.Release()
			c.Discard()
		}

		// A short tail re-arms the held consumers; then tails that fill
		// whole blocks past the old end.
		for _, n := range []int{500, 2*engine.BatchRows + 77} {
			db := f.grow(t, rng, n, -1000)
			if err := s.Extend(db, db.Fact.NumRows()); err != nil {
				t.Fatal(err)
			}
			checkRound(t, db, label(fmt.Sprintf("extended by %d", n)), offGrid)
			runRound(t, s, db, label(fmt.Sprintf("after a %d-row tail", n)), rng.Intn(db.Fact.NumRows()))
		}

		// ival values past the column's maximum widen its binned domain.
		shapes := s.blockShapes()
		db := f.grow(t, rng, engine.BatchRows, 3000)
		if err := s.Extend(db, db.Fact.NumRows()); err != nil {
			t.Fatal(err)
		}
		checkRound(t, db, label("extended past the ival domain"), offGrid)
		wide := runRound(t, s, db, label("after widening"), 0)
		again := runRound(t, s, db, label("after widening, again"), 0)
		if served(again) <= served(wide) {
			t.Fatalf("seed %d: the widened shapes served %d rows, then %d", seed, served(wide), served(again))
		}
		if n := s.blockShapes(); n != shapes || n != 5 {
			t.Fatalf("seed %d: %d shapes before widening, %d after; want the 5 of blockQueries both times", seed, shapes, n)
		}
		for _, c := range append(append(offGrid, wide...), again...) {
			c.Release()
		}
	}
}

// TestBlockRegistryIgnoresFilteredAnd2D: a filtered 1-D plan and an
// unfiltered dense 2-D plan fold every row themselves and never create a
// registry entry.
func TestBlockRegistryIgnoresFilteredAnd2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newBlockFixture(t, 8*engine.BatchRows, rng)
	s := New(f.db.Fact.NumRows(), engine.BatchRows, 2)
	qs := []*query.Query{
		{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}},
			Aggs:   []query.Aggregate{{Func: query.Sum, Field: "ival"}},
			Filter: query.Filter{Predicates: []query.Predicate{{Field: "val", Op: query.OpRange, Lo: -1e9, Hi: 1e9}}}},
		{Bins: []query.Binning{{Field: "cat", Kind: dataset.Nominal}, {Field: "ival", Kind: dataset.Quantitative, Width: 100}},
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

// TestBlockRegistryReplacesWidenedShape: a plan of a view whose append
// widened the binned domain replaces its shape's entry instead of adding
// one; a plan of the older view then gets no tables and folds its rows,
// while a plan of the newer view finds the replacement.
func TestBlockRegistryReplacesWidenedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := newBlockFixture(t, 4*engine.BatchRows, rng)
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

// TestClaimsStayOnChunkGrid: every claim a worker makes starts on the chunk
// grid and ends on it or at the scanner's last row, also after an Extend by
// 500 rows whose tail starts off the grid, and every final is exact over
// the grown table. Chunks of engine.BatchRows are joined into claims of
// several; smaller ones are not.
func TestClaimsStayOnChunkGrid(t *testing.T) {
	for _, chunk := range []int{512, engine.BatchRows} {
		rng := rand.New(rand.NewSource(11))
		f := newBlockFixture(t, 40*chunk+300, rng)
		s := New(f.db.Fact.NumRows(), chunk, 2)
		var off [][2]int
		var tail, joined int
		oldRows := f.db.Fact.NumRows()
		s.onClaim = func(lo, hi int) {
			if lo%chunk != 0 || hi%chunk != 0 && hi != s.numRows {
				off = append(off, [2]int{lo, hi})
			}
			if hi > oldRows {
				tail++
			}
			if hi-lo > chunk {
				joined++
			}
		}
		cs := runRound(t, s, f.db, "before the append", 0)
		for _, c := range runRound(t, s, f.db, "merging recorded tables", 0) {
			c.Release()
		}
		db := f.grow(t, rng, 500, -1000)
		if err := s.Extend(db, db.Fact.NumRows()); err != nil {
			t.Fatal(err)
		}
		checkRound(t, db, "after the append", cs)
		for _, c := range cs {
			c.Release()
		}
		s.mu.Lock()
		if len(off) > 0 {
			t.Fatalf("claims off the %d-row grid at %v", chunk, off)
		}
		if tail == 0 {
			t.Fatalf("chunk %d: no claim reached the appended tail", chunk)
		}
		if want := chunk == engine.BatchRows; (joined > 0) != want {
			t.Fatalf("chunk %d: %d joined claims", chunk, joined)
		}
		s.mu.Unlock()
	}
}

// blockShapes returns how many shapes the scanner's block registry holds.
func (s *Scanner) blockShapes() int {
	s.blocks.mu.Lock()
	defer s.blocks.mu.Unlock()
	return len(s.blocks.shapes)
}
