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
// binning and geometry share a key whatever their aggregate positions, other
// op classes or inputs do not, and filtered, 2-D and wide plans have none.
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
	} {
		if k := key(q); k == sum {
			t.Fatalf("%s shares SUM(x) by cat_b's key %q", q.Signature(), k)
		}
	}
	for name, q := range map[string]*query.Query{
		"filtered": {Bins: byCat, Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: 0, Hi: 1}}}},
		"2-D": {Bins: []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}, {Field: "cat_b", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"past blockMaxSlots": {Bins: []query.Binning{{Field: "y", Kind: dataset.Quantitative, Width: 10}},
			Aggs: []query.Aggregate{{Func: query.Count}}},
	} {
		if k, ok := blockPlan(t, db, q).BlockShape(); ok {
			t.Fatalf("%s plan has block shape %q", name, k)
		}
	}
}

// TestScanRangeBlocksConcurrentRecord: scans racing to record the same
// blocks of one shape each fold a correct table, one table per block is
// kept, and every state equals the others bit for bit and ScanRange's on
// counts and min/max, its moments within 1e-9.
func TestScanRangeBlocksConcurrentRecord(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(4)), 6*BatchRows+100, false)
	plan := blockPlan(t, db, &query.Query{Bins: []query.Binning{{Field: "cat_a", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}, {Func: query.Min, Field: "y"}, {Func: query.Max, Field: "x"}}})
	b := NewBlocks(plan)
	const scans = 4
	states := make([]*GroupState, scans)
	var wg sync.WaitGroup
	for i := range states {
		states[i] = NewGroupState(plan)
		wg.Add(1)
		go func(g *GroupState) {
			defer wg.Done()
			g.ScanRangeBlocks(0, plan.NumRows, b)
		}(states[i])
	}
	wg.Wait()
	for i := 0; i < plan.NumRows/BatchRows; i++ {
		if b.table(i) == nil {
			t.Fatalf("block %d holds no table", i)
		}
	}
	for i, g := range states[1:] {
		assertStatesEqual(t, fmt.Sprintf("scan %d against scan 0", i+1), states[0], g)
	}
	ref := NewGroupState(plan)
	ref.ScanRange(0, plan.NumRows)
	want, got := binStates(t, "ScanRange", ref), binStates(t, "blocks", states[0])
	if len(got) != len(want) {
		t.Fatalf("%d bins, ScanRange %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.N != w.N || !reflect.DeepEqual(g.Mins, w.Mins) || !reflect.DeepEqual(g.Maxs, w.Maxs) {
			t.Fatalf("bin %v: %+v, ScanRange %+v", k, g, w)
		}
		for i, wm := range w.Moments {
			gm := g.Moments[i]
			for _, v := range [][2]float64{{wm.Sum(w.N), gm.Sum(w.N)}, {wm.Mean(w.N), gm.Mean(w.N)}, {wm.M2(w.N), gm.M2(w.N)}} {
				if math.Abs(v[0]-v[1]) > 1e-9*math.Max(1, math.Abs(v[0])) {
					t.Fatalf("bin %v agg %d: moments %+v, ScanRange %+v", k, i, gm, wm)
				}
			}
		}
	}
	if g := NewGroupState(plan); g.ScanRangeBlocks(0, plan.NumRows, b) != plan.NumRows/BatchRows*BatchRows {
		t.Fatal("a scan after the race did not merge every whole block")
	}
}
