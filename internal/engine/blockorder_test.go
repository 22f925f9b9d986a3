package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// orderEdges are the values the block-order kernels must place exactly as
// the scan kernels' v >= lo && v < hi does: signed zeros, infinities,
// subnormals and the largest magnitudes.
var orderEdges = []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, -1.5, 2.25}

// orderTable builds a fact table for the block-order property test: q draws
// heavily duplicated values, the edge values and continuous ones; n codes
// over a dictionary of card values, skewed toward the low codes. nanBlock,
// if not negative, gets a NaN.
func orderTable(t *testing.T, rng *rand.Rand, rows, card, nanBlock int) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "q", Kind: dataset.Quantitative},
		{Name: "n", Kind: dataset.Nominal},
	})
	b := dataset.NewBuilder("fact", schema, rows)
	for i := 0; i < card; i++ {
		b.Dict(1).Code(fmt.Sprintf("v%d", i))
	}
	nan := -1
	if nanBlock >= 0 && (nanBlock+1)*BatchRows <= rows {
		nan = nanBlock*BatchRows + rng.Intn(BatchRows)
	}
	for i := 0; i < rows; i++ {
		var v float64
		switch r := rng.Intn(10); {
		case i == nan:
			v = math.NaN()
		case r < 2:
			v = orderEdges[rng.Intn(len(orderEdges))]
		case r < 7:
			v = float64(rng.Intn(30) - 15)
		default:
			v = rng.NormFloat64() * 100
		}
		b.AppendNum(0, v)
		b.AppendCode(1, uint32(min(rng.Intn(card), rng.Intn(card))))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return fact
}

// orderSpans lists the spans a property trial selects over: every block of
// the table (the last one ragged when rows is not a multiple of
// BatchRows), whole-block-long spans off the grid, and short random ones.
func orderSpans(rng *rand.Rand, rows int) [][2]int {
	var spans [][2]int
	for lo := 0; lo < rows; lo += BatchRows {
		spans = append(spans, [2]int{lo, min(lo+BatchRows, rows)})
	}
	for range 4 {
		if rows > BatchRows {
			lo := 1 + rng.Intn(rows-BatchRows)
			spans = append(spans, [2]int{lo, lo + BatchRows})
		}
		lo := rng.Intn(rows)
		spans = append(spans, [2]int{lo, lo + rng.Intn(min(BatchRows, rows-lo)+1)})
	}
	return spans
}

// checkTwins fails unless k, a kernel with a block order, selects the rows
// its scan twin selectRange does over every span: through selectBlock where
// the span is a whole aligned block, through selectRange (which no order
// serves) elsewhere.
func checkTwins(t *testing.T, label string, k predKernel, spans [][2]int) {
	t.Helper()
	var got, want [BatchRows]uint32
	for _, s := range spans {
		w := k.selectRange(s[0], s[1], want[:])
		var g []uint32
		indexed := false
		if s[0]%BatchRows == 0 && s[1]-s[0] == BatchRows {
			g, indexed = k.(blockSelector).selectBlock(s[0]/BatchRows, got[:])
		}
		if !indexed {
			g = k.selectRange(s[0], s[1], got[:])
		}
		if !slices.Equal(g, w) {
			t.Fatalf("%s over [%d,%d): selected %d rows (block order: %v), the scan %d", label, s[0], s[1], len(g), indexed, len(w))
		}
	}
}

// TestBlockOrderSelectMatchesScan is the block-order property wall: the
// indexed range and IN kernels select exactly the scan kernels' rows, in the
// same order, over heavy duplicates, bounds equal to data values, −0/+0,
// ±Inf, NaN bounds and NaN blocks, empty and full ranges, IN sets with
// absent and out-of-dictionary codes and past the searched length, a ragged
// last block and misaligned spans.
func TestBlockOrderSelectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	indexed := 0
	for trial := 0; trial < 12; trial++ {
		rows := (1+rng.Intn(3))*BatchRows + []int{0, 1, rng.Intn(BatchRows)}[trial%3]
		card := []int{1, 3, 40, 700}[trial%4]
		fact := orderTable(t, rng, rows, card, []int{-1, 0, 1}[trial%3])
		q, n := fact.Columns[0], fact.Columns[1]
		spans := orderSpans(rng, rows)

		bounds := append(slices.Clone(orderEdges), math.NaN(), 3, -15, 14, 0.5)
		for range 6 {
			bounds = append(bounds, q.Nums[rng.Intn(rows)])
		}
		for range 40 {
			lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			k := newRangePredKernel(q, nil, lo, hi)
			checkTwins(t, fmt.Sprintf("trial %d: [%v, %v)", trial, lo, hi), k, spans)
		}
		for _, size := range []int{0, 1, 1, 2, 3, 5, maxOrderRuns, maxOrderRuns + 1} {
			want := make(map[uint32]struct{})
			for len(want) < size {
				// Past card: codes absent from the dictionary.
				want[uint32(rng.Intn(card+2*maxOrderRuns))] = struct{}{}
			}
			checkTwins(t, fmt.Sprintf("trial %d: IN of %d", trial, size), newInPredKernel(n, nil, want), spans)
			vals := make([]uint32, 0, size)
			for c := range want {
				vals = append(vals, c)
			}
			slices.Sort(vals)
			m := inMapPred{inOrder: inOrder{codes: n.Codes, ord: n.BlockOrder(), vals: vals}, want: want}
			checkTwins(t, fmt.Sprintf("trial %d: map IN of %d", trial, size), m, spans)
		}
		indexed += int(q.BlockOrder().Builds() + n.BlockOrder().Builds())
	}
	if indexed == 0 {
		t.Fatal("no block order was built: the property compared the scan with itself")
	}
}

// TestBlockOrderAppendCompletesBlock: a lineage's ragged last block has no
// order until an append completes it; then the grown view's kernels index
// it, the orders built through the older view serve the newer one unbuilt,
// and the older view's plan keeps its answers.
func TestBlockOrderAppendCompletesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := orderTable(t, rng, 2*BatchRows+100, 9, -1)
	app := dataset.NewTableAppender(base, true)
	v0 := app.View()
	ord := v0.Columns[0].BlockOrder()
	k0 := newRangePredKernel(v0.Columns[0], nil, -3, 40)
	checkTwins(t, "before the append", k0, orderSpans(rng, v0.NumRows()))
	if got := ord.Builds(); got != 2 {
		t.Fatalf("%d blocks built before the append, want the 2 whole ones", got)
	}
	tail := orderTable(t, rng, BatchRows, 9, -1)
	tail.Columns[1].Dict = v0.Columns[1].Dict // the same codes, interned in the same order
	v1, err := app.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	k1 := newRangePredKernel(v1.Columns[0], nil, -3, 40)
	checkTwins(t, "after the append", k1, orderSpans(rng, v1.NumRows()))
	checkTwins(t, "the old view after the append", k0, orderSpans(rng, v0.NumRows()))
	if got := ord.Builds(); got != 3 {
		t.Fatalf("%d blocks built after the append, want 3: the completed block once, the others not again", got)
	}
	in := newInPredKernel(v1.Columns[1], nil, map[uint32]struct{}{2: {}, 4: {}})
	checkTwins(t, "IN after the append", in, orderSpans(rng, v1.NumRows()))
}

// TestBlockOrderConcurrentBuilds runs four scans over one fresh lineage at
// once, each building (or finding built, or finding another scan building)
// the same blocks: under -race, the state word's claim and publish are the
// only synchronization, and every scan's result still equals the row-by-row
// one.
func TestBlockOrderConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 4; round++ {
		fact := orderTable(t, rng, 8*BatchRows, 25, -1)
		plans := make([]*Compiled, 4)
		for i := range plans {
			q := &query.Query{VizName: "v", Table: "fact",
				Bins: []query.Binning{{Field: "n", Kind: dataset.Nominal}},
				Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Sum, Field: "q"}},
				Filter: query.Filter{Predicates: []query.Predicate{
					{Field: "q", Op: query.OpRange, Lo: -10 + float64(i), Hi: 50}}}}
			if i%2 == 1 {
				q.Filter.Predicates = []query.Predicate{{Field: "n", Op: query.OpIn, Values: []string{"v1", "v3", fmt.Sprintf("v%d", i)}}}
			}
			plans[i] = mustCompile(t, fact, q)
		}
		states := make([]*GroupState, len(plans))
		var wg sync.WaitGroup
		for i, plan := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				states[i] = NewGroupState(plan)
				states[i].ScanRange(0, plan.NumRows)
			}()
		}
		wg.Wait()
		for i, plan := range plans {
			want := NewGroupState(plan)
			want.ScanRangeScalar(0, plan.NumRows)
			if err := compareResults(states[i].SnapshotExact(), want.SnapshotExact()); err != nil {
				t.Fatalf("round %d, scan %d: %v", round, i, err)
			}
		}
		if fact.Columns[0].BlockOrder().Builds() != 8 || fact.Columns[1].BlockOrder().Builds() > 8 {
			t.Fatalf("round %d: %d and %d builds of 8 blocks", round,
				fact.Columns[0].BlockOrder().Builds(), fact.Columns[1].BlockOrder().Builds())
		}
	}
}
