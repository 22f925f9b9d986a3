package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

func blockPlan(t *testing.T, db *dataset.Database, q *query.Query) *Compiled {
	t.Helper()
	q.VizName, q.Table = "v", "fact"
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBlockShapeKeys: plans that fold the same op columns over the same
// binnings share a key whatever their aggregate positions; other op classes,
// inputs or binnings do not, nor do the same two binnings in the other
// order; and filtered and non-dense plans have none.
func TestBlockShapeKeys(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(2)), 4*BatchRows, false)
	byCat := []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}}
	key := func(q *query.Query) string {
		k, ok := blockPlan(t, db, q).BlockShape()
		if !ok {
			t.Fatalf("%s has no block shape", q.Signature())
		}
		return k
	}
	sum := key(&query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "x"}}})
	if avg := key(&query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}}}); avg != sum {
		t.Fatalf("COUNT+AVG(x) keys %q, SUM(x) %q", avg, sum)
	}
	for _, q := range []*query.Query{
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "y"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Min, Field: "x"}}},
		{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Sum, Field: "x"}, {Func: query.Max, Field: "x"}}},
		{Bins: []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}}, Aggs: []query.Aggregate{{Func: query.Sum, Field: "x"}}},
		{Bins: []query.Binning{{Field: "x", Kind: dataset.Quantitative, Width: 50}}, Aggs: []query.Aggregate{{Func: query.Sum, Field: "x"}}},
		{Bins: append(byCat, query.Binning{Field: "cat_a", Kind: dataset.Nominal}), Aggs: []query.Aggregate{{Func: query.Sum, Field: "x"}}},
	} {
		if k := key(q); k == sum {
			t.Fatalf("%s shares SUM(x) by cat_b's key %q", q.Signature(), k)
		}
	}
	ab := []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}, {Field: "x", Kind: dataset.Quantitative, Width: 50}}
	ba := []query.Binning{ab[1], ab[0]}
	if kab, kba := key(&query.Query{Bins: ab, Aggs: []query.Aggregate{{Func: query.Count}}}),
		key(&query.Query{Bins: ba, Aggs: []query.Aggregate{{Func: query.Count}}}); kab == kba {
		t.Fatalf("cat_a×x and x×cat_a share the key %q", kab)
	}
	for name, q := range map[string]*query.Query{
		"filtered": {Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: 0, Hi: 1}}}},
		"past denseMaxSlots": {Bins: []query.Binning{{Field: "y", Kind: dataset.Quantitative, Width: 1}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"2-D past denseMaxSlots": {Bins: []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}, {Field: "y", Kind: dataset.Quantitative, Width: 4}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
	} {
		if k, ok := blockPlan(t, db, q).BlockShape(); ok {
			t.Fatalf("%s plan has block shape %q", name, k)
		}
	}
}

// TestBlockTablesConcurrentRecord: scans racing to record the same blocks
// of one shape, 1-D and 2-D, each fold a correct table, one table per block
// is kept, and every state equals the others bit for bit and ScanRange's on
// counts and min/max, its moments within 1e-9.
func TestBlockTablesConcurrentRecord(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(4)), 6*BatchRows+100, false)
	aggs := []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}, {Func: query.Min, Field: "y"}, {Func: query.Max, Field: "x"}}
	for name, bins := range map[string][]query.Binning{
		"1-D": {{Field: "cat_a", Kind: dataset.Nominal}},
		"2-D": {{Field: "cat_b", Kind: dataset.Nominal}, {Field: "x", Kind: dataset.Quantitative, Width: 200}},
	} {
		plan := blockPlan(t, db, &query.Query{Bins: bins, Aggs: aggs})
		b := NewBlocks(plan, nil)
		const scans = 4
		states := make([]*GroupState, scans)
		var wg sync.WaitGroup
		for i := range states {
			states[i] = NewGroupState(plan)
			wg.Add(1)
			go func(g *GroupState) {
				defer wg.Done()
				g.ScanRangeReusing(0, plan.NumRows, b, nil)
			}(states[i])
		}
		wg.Wait()
		for i := 0; i < plan.NumRows/BatchRows; i++ {
			if bt := b.dir.Slot(i).Load(); bt == nil || bt == blockUnrecordable {
				t.Fatalf("%s: block %d holds no table", name, i)
			}
		}
		for i, g := range states[1:] {
			assertStatesEqual(t, fmt.Sprintf("%s: scan %d against scan 0", name, i+1), states[0], g)
		}
		ref := NewGroupState(plan)
		ref.ScanRange(0, plan.NumRows)
		want, got := binStates(t, "ScanRange", ref), binStates(t, "blocks", states[0])
		if len(got) != len(want) {
			t.Fatalf("%s: %d bins, ScanRange %d", name, len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			if g.N != w.N || !reflect.DeepEqual(g.Mins, w.Mins) || !reflect.DeepEqual(g.Maxs, w.Maxs) {
				t.Fatalf("%s: bin %v: %+v, ScanRange %+v", name, k, g, w)
			}
			for i, wm := range w.Moments {
				gm := g.Moments[i]
				for _, v := range [][2]float64{{wm.Sum(w.N), gm.Sum(w.N)}, {wm.Mean(w.N), gm.Mean(w.N)}, {wm.M2(w.N), gm.M2(w.N)}} {
					if math.Abs(v[0]-v[1]) > 1e-9*math.Max(1, math.Abs(v[0])) {
						t.Fatalf("%s: bin %v agg %d: moments %+v, ScanRange %+v", name, k, i, gm, wm)
					}
				}
			}
		}
		if g := NewGroupState(plan); g.ScanRangeReusing(0, plan.NumRows, b, nil) != plan.NumRows/BatchRows*BatchRows {
			t.Fatalf("%s: a scan after the race did not merge every whole block", name)
		}
	}
}

// TestBlockUnrecordableFolds: a shape whose every block table would pass
// maxBlockTableBytes keeps the shared sentinel in each block's slot, and
// every scan of it — the recording one included — folds the rows exactly as
// ScanRange does, bit for bit, merging nothing.
func TestBlockUnrecordableFolds(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(5)), 5*BatchRows+17, false)
	plan := blockPlan(t, db, &query.Query{
		Bins: []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}, {Field: "y", Kind: dataset.Quantitative, Width: 50}},
		Aggs: []query.Aggregate{{Func: query.Avg, Field: "x"}, {Func: query.Max, Field: "y"}}})
	b := NewBlocks(plan, nil)
	ref := NewGroupState(plan)
	ref.ScanRange(0, plan.NumRows)
	for round := 0; round < 2; round++ {
		g := NewGroupState(plan)
		if served := g.ScanRangeReusing(0, plan.NumRows, b, nil); served != 0 {
			t.Fatalf("round %d merged %d rows from tables over the byte rule", round, served)
		}
		for i := 0; i < plan.NumRows/BatchRows; i++ {
			if b.dir.Slot(i).Load() != blockUnrecordable {
				t.Fatalf("round %d: block %d does not hold the unrecordable sentinel", round, i)
			}
		}
		assertStatesEqual(t, fmt.Sprintf("round %d", round), ref, g)
	}
}

// countingPred counts the rows a predicate kernel tests.
type countingPred struct {
	predKernel
	tested *int
}

func (p countingPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	*p.tested += hi - lo
	return p.predKernel.selectRange(lo, hi, buf)
}

// countingSel counts the blocks a kernel is asked to select through its
// block order.
type countingSel struct {
	blockSelector
	asked *int
}

func (p countingSel) selectBlock(i int, buf []uint32) ([]uint32, bool) {
	*p.asked++
	return p.blockSelector.selectBlock(i, buf)
}

// TestBlockChainOrder pins the priority of ScanRangeReusing's per-block
// chain, each case over a fresh lineage: a whole block a recorded selection
// serves never reaches the first predicate or its block order; a shape
// whose block tables are recorded reads no selection and builds no order;
// and a scan made only of spans holding no whole aligned block looks up
// neither a selection nor an order. Each scan still folds the state of the
// row-by-row scan.
func TestBlockChainOrder(t *testing.T) {
	const rows = 4 * BatchRows
	byCat := []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}}
	filter := query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: -60, Hi: 90}}}
	builds := func(db *dataset.Database) (n int64) {
		for _, c := range db.Fact.Columns {
			n += c.BlockOrder().Builds()
		}
		return n
	}
	// counted compiles q and counts what its first predicate does.
	counted := func(db *dataset.Database, q *query.Query) (plan *Compiled, tested, asked *int) {
		plan = blockPlan(t, db, q)
		tested, asked = new(int), new(int)
		plan.predKern[0] = countingPred{plan.predKern[0], tested}
		plan.blockSel = countingSel{plan.blockSel, asked}
		return plan, tested, asked
	}
	// recorded returns a selection of keys holding plan's passing rows for
	// every whole block, found by the scalar filter: no kernel, no order.
	recorded := func(plan *Compiled, keys []string) *Selection {
		s := new(Selection)
		s.Reset(plan.NumRows, keys)
		rec := NewSelectionUse(plan, keys, nil, s)
		for i := 0; i < plan.NumRows/BatchRows; i++ {
			var sel []uint32
			for r := i * BatchRows; r < (i+1)*BatchRows; r++ {
				if plan.Matches(r) {
					sel = append(sel, uint32(r))
				}
			}
			rec.record(i, sel)
		}
		return s
	}
	scalar := func(plan *Compiled) *GroupState {
		g := NewGroupState(plan)
		g.ScanRangeScalar(0, plan.NumRows)
		return g
	}

	t.Run("selection before block order", func(t *testing.T) {
		db := randomDB(t, rand.New(rand.NewSource(41)), rows, false)
		q := &query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}, Filter: filter}
		plan, tested, asked := counted(db, q)
		_, keys := q.SignatureKeys()
		u := NewSelectionUse(plan, keys, recorded(plan, keys), nil)
		g := NewGroupState(plan)
		g.ScanRangeReusing(0, rows, nil, u)
		if *tested != 0 || *asked != 0 || builds(db) != 0 {
			t.Fatalf("blocks read from a selection: %d rows tested, %d blocks asked of the order, %d orders built", *tested, *asked, builds(db))
		}
		if u.RowsServed() != rows {
			t.Fatalf("%d rows read from the selection, want %d", u.RowsServed(), rows)
		}
		assertStatesEqual(t, "selection", scalar(plan), g)
	})

	t.Run("block tables before selection", func(t *testing.T) {
		db := randomDB(t, rand.New(rand.NewSource(42)), rows, false)
		plan := blockPlan(t, db, &query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}})
		b := NewBlocks(plan, nil)
		NewGroupState(plan).ScanRangeReusing(0, rows, b, nil)
		// An unfiltered plan never gets a use from NewSelectionUse; this one
		// holds a selection with every block recorded, which the chain must
		// not consult while a table serves.
		fq := &query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}, Filter: filter}
		fplan := blockPlan(t, db, fq)
		_, fkeys := fq.SignatureKeys()
		s := recorded(fplan, fkeys)
		u := &SelectionUse{plan: plan, from: s, fromGen: s.gen}
		g := NewGroupState(plan)
		if served := g.ScanRangeReusing(0, rows, b, u); served != rows {
			t.Fatalf("%d rows merged from block tables, want %d", served, rows)
		}
		if u.RowsServed() != 0 || builds(db) != 0 {
			t.Fatalf("a shape with recorded tables read %d rows from a selection and built %d orders", u.RowsServed(), builds(db))
		}
		assertStatesEqual(t, "block tables", scalar(plan), g)
	})

	t.Run("misaligned spans", func(t *testing.T) {
		db := randomDB(t, rand.New(rand.NewSource(43)), rows, false)
		q := &query.Query{Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}}, Filter: filter}
		plan, tested, asked := counted(db, q)
		_, keys := q.SignatureKeys()
		u := NewSelectionUse(plan, keys, recorded(plan, keys), nil)
		g := NewGroupState(plan)
		// [0, 100), then block-long spans off the grid, then the rest: no
		// span holds a whole aligned block.
		for lo := 0; lo < rows; {
			hi := min(rows, (lo/BatchRows+1)*BatchRows+100)
			if lo == 0 {
				hi = 100
			}
			g.ScanRangeReusing(lo, hi, nil, u)
			lo = hi
		}
		if *asked != 0 || builds(db) != 0 || u.RowsServed() != 0 {
			t.Fatalf("misaligned spans asked the order for %d blocks, built %d orders and read %d rows from a selection",
				*asked, builds(db), u.RowsServed())
		}
		if *tested != rows {
			t.Fatalf("misaligned spans tested %d rows, want %d", *tested, rows)
		}
		assertStatesEqual(t, "misaligned", scalar(plan), g)
	})
}
