package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// Lineage tests of the derived bin-code columns: what a plan binds when the
// table under it grows through a dataset.TableAppender.

var lineageSchema = dataset.MustSchema([]dataset.Field{
	{Name: "cat", Kind: dataset.Nominal},
	{Name: "x", Kind: dataset.Quantitative},
})

// lineageBatch builds a batch of xs (sharing base's dictionary) for an
// appender over base.
func lineageBatch(t *testing.T, base *dataset.Table, xs ...float64) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder(base.Name, base.Schema, len(xs))
	b.SetDict(0, base.Columns[0].Dict)
	for i, x := range xs {
		b.AppendString(0, fmt.Sprintf("c%d", i%3))
		b.AppendNum(1, x)
	}
	batch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

// lineageBase builds rows values uniform in [0, 100): bins 0..9 at width 10.
func lineageBase(t *testing.T, rng *rand.Rand, rows int) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("fact", lineageSchema, rows)
	for i := 0; i < rows; i++ {
		b.AppendString(0, fmt.Sprintf("c%d", i%3))
		b.AppendNum(1, rng.Float64()*100)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func lineageQuery() *query.Query {
	return &query.Query{VizName: "v", Table: "fact",
		Bins: []query.Binning{{Field: "x", Kind: dataset.Quantitative, Width: 10}},
		Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}}}
}

// checkAgainstScalar scans plan's whole view through the kernels and through
// the scalar closures and requires bitwise-equal states.
func checkAgainstScalar(t *testing.T, label string, plan *Compiled) {
	t.Helper()
	ref, vec := NewGroupState(plan), NewGroupState(plan)
	ref.ScanRangeScalar(0, plan.NumRows)
	vec.ScanRange(0, plan.NumRows)
	assertStatesEqual(t, label, ref, vec)
}

func mustCompile(t *testing.T, fact *dataset.Table, q *query.Query) *Compiled {
	t.Helper()
	plan, err := Compile(&dataset.Database{Fact: fact}, q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBinCodesFollowAppendLineage appends 1 000 small batches through a
// TableAppender: every view's plan reads the one code column the first
// compile built (extended, never rebuilt), and plans held on old views keep
// answering over exactly the rows they were compiled against.
func TestBinCodesFollowAppendLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := lineageBase(t, rng, 1000)
	app := dataset.NewTableAppender(base, true)
	q := lineageQuery()

	type held struct {
		plan *Compiled
		rows int
	}
	old := []held{{mustCompile(t, base, q), base.NumRows()}}
	x := base.Column("x")
	if got := x.BinCodeBuilds(); got != 1 {
		t.Fatalf("first compile made %d builds, want 1", got)
	}
	for i := 0; i < 1000; i++ {
		xs := make([]float64, 1+rng.Intn(3))
		for j := range xs {
			xs[j] = rng.Float64() * 100
		}
		view, err := app.Append(lineageBatch(t, base, xs...))
		if err != nil {
			t.Fatal(err)
		}
		if i%50 != 0 {
			continue // most views are never compiled against: the next one that is catches up
		}
		plan := mustCompile(t, view, q)
		k, ok := plan.binKern[0].(codeBin)
		if !ok || len(k.codes) != view.NumRows() {
			t.Fatalf("append %d: kernel %T over %d codes, want codeBin over %d", i, plan.binKern[0], len(k.codes), view.NumRows())
		}
		checkAgainstScalar(t, fmt.Sprintf("append %d", i), plan)
		old = append(old, held{plan, view.NumRows()})
	}
	if got := app.View().Column("x").BinCodeBuilds(); got != 1 {
		t.Fatalf("%d builds after 1000 appends, want the first compile's 1", got)
	}
	for _, h := range old {
		if h.plan.NumRows != h.rows || len(h.plan.binKern[0].(codeBin).codes) != h.rows {
			t.Fatalf("a plan compiled at %d rows now spans %d", h.rows, h.plan.NumRows)
		}
		checkAgainstScalar(t, fmt.Sprintf("old view at %d rows", h.rows), h.plan)
	}
	// A late compile against the oldest view gets the prefix, not a rebuild.
	late := mustCompile(t, base, q)
	if k, ok := late.binKern[0].(codeBin); !ok || len(k.codes) != base.NumRows() {
		t.Fatalf("late compile on the base view runs %T", late.binKern[0])
	}
	checkAgainstScalar(t, "late compile on the base view", late)
}

// TestBinCodesHeadroomAndOutgrowth: a batch that moves the column's bounds
// by a few bins changes only the plan's offset into the same codes; one that
// moves them out of the byte flips the binning to the arithmetic kernel for
// good — on every view, old ones included — with identical results.
func TestBinCodesHeadroomAndOutgrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := lineageBase(t, rng, 500)
	app := dataset.NewTableAppender(base, true)
	q := lineageQuery()
	first := mustCompile(t, base, q).binKern[0].(codeBin)

	// Bins -7 and 16 join 0..9: 24 slots, well inside the byte's headroom.
	view, err := app.Append(lineageBatch(t, base, -65, 165, 50))
	if err != nil {
		t.Fatal(err)
	}
	plan := mustCompile(t, view, q)
	moved, ok := plan.binKern[0].(codeBin)
	if !ok {
		t.Fatalf("bounds moved inside the headroom, kernel is %T", plan.binKern[0])
	}
	if plan.geom.sizeA != 24 || moved.off != first.off+7 {
		t.Fatalf("domain %d slots, offset %d (was %d); want 24 slots and the offset up by the 7 bins the origin fell",
			plan.geom.sizeA, moved.off, first.off)
	}
	if got := view.Column("x").BinCodeBuilds(); got != 1 {
		t.Fatalf("%d builds, want 1: the codes are extended, not rebuilt", got)
	}
	checkAgainstScalar(t, "inside the headroom", plan)

	// 200 bins above: the domain still fits 256 slots, the memo's byte does
	// not reach it.
	view, err = app.Append(lineageBatch(t, base, 2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*dataset.Table{view, base, app.View()} {
		plan = mustCompile(t, v, q)
		if _, ok := plan.binKern[0].(quantDirectBin); !ok {
			t.Fatalf("after the values left the byte a %d-row view runs %T", v.NumRows(), plan.binKern[0])
		}
		if plan.geom.slots() == 0 {
			t.Fatal("want a dense plan")
		}
		checkAgainstScalar(t, "outgrown", plan)
	}
	if got := view.Column("x").BinCodeBuilds(); got != 1 {
		t.Fatalf("%d builds, want 1: an outgrown binning is not rebuilt", got)
	}
}

// TestBinCodesCopyModeStartsOwnRegistry: NewTableAppender(t, false) copies
// the storage, so its lineage must not read — or extend — t's codes.
func TestBinCodesCopyModeStartsOwnRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := lineageBase(t, rng, 300)
	q := lineageQuery()
	onBase := mustCompile(t, base, q).binKern[0].(codeBin)

	app := dataset.NewTableAppender(base, false)
	view, err := app.Append(lineageBatch(t, base, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	onView := mustCompile(t, view, q).binKern[0].(codeBin)
	if &onView.codes[0] == &onBase.codes[0] {
		t.Fatal("a copied lineage shares the base table's code column")
	}
	if b, v := base.Column("x").BinCodeBuilds(), view.Column("x").BinCodeBuilds(); b != 1 || v != 1 {
		t.Fatalf("builds: base %d, copied lineage %d; want one each", b, v)
	}
	// The base table is still only its own 300 rows.
	again := mustCompile(t, base, q).binKern[0].(codeBin)
	if len(again.codes) != 300 || &again.codes[0] != &onBase.codes[0] {
		t.Fatal("the base table's codes changed under a copied lineage")
	}
}

// TestBinCodesFifthBinningStaysArithmetic: a column lineage carries at most
// four code columns; the fifth distinct binning computes from the values.
func TestBinCodesFifthBinningStaysArithmetic(t *testing.T) {
	base := lineageBase(t, rand.New(rand.NewSource(9)), 200)
	for i, width := range []float64{10, 5, 4, 2, 1} {
		q := lineageQuery()
		q.Bins[0].Width = width
		plan := mustCompile(t, base, q)
		_, coded := plan.binKern[0].(codeBin)
		if want := i < 4; coded != want {
			t.Fatalf("binning %d (width %v) runs %T", i+1, width, plan.binKern[0])
		}
		checkAgainstScalar(t, fmt.Sprintf("binning %d", i+1), plan)
	}
	if got := base.Column("x").BinCodeBuilds(); got != 4 {
		t.Fatalf("%d builds, want 4", got)
	}
}

// TestRecompileExtendsButNeverBuilds is sharedscan.Extend's contract: a plan
// rebound to a grown view keeps reading codes, extended by the appended rows,
// when its binning was built before; a binning nobody built stays arithmetic
// through Recompile and costs no pass over the table.
func TestRecompileExtendsButNeverBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := lineageBase(t, rng, 400)
	app := dataset.NewTableAppender(base, true)
	built := mustCompile(t, base, lineageQuery())
	unbuilt := arithmeticTwin(t, &dataset.Database{Fact: base}, func() *query.Query {
		q := lineageQuery()
		q.Bins[0].Width = 4
		return q
	}())
	for i := 0; i < 20; i++ {
		view, err := app.Append(lineageBatch(t, base, rng.Float64()*100, rng.Float64()*100))
		if err != nil {
			t.Fatal(err)
		}
		db := &dataset.Database{Fact: view}
		if built, err = Recompile(db, built); err != nil {
			t.Fatal(err)
		}
		if k, ok := built.binKern[0].(codeBin); !ok || len(k.codes) != view.NumRows() {
			t.Fatalf("append %d: rebound plan runs %T", i, built.binKern[0])
		}
		checkAgainstScalar(t, "rebound, coded", built)
		if unbuilt, err = Recompile(db, unbuilt); err != nil {
			t.Fatal(err)
		}
		if _, ok := unbuilt.binKern[0].(quantDirectBin); !ok {
			t.Fatalf("append %d: Recompile gave a never-built binning %T", i, unbuilt.binKern[0])
		}
		checkAgainstScalar(t, "rebound, arithmetic", unbuilt)
		if got := view.Column("x").BinCodeBuilds(); got != 1 {
			t.Fatalf("append %d: %d builds, want 1", i, got)
		}
	}
}
