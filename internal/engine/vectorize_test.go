package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// randomDB builds a randomized database: a fact table with two nominal and
// two quantitative columns, optionally normalized into a star schema with a
// dimension table reached through an FK column.
func randomDB(t *testing.T, rng *rand.Rand, rows int, normalized bool) *dataset.Database {
	t.Helper()
	card := 1 + rng.Intn(40)
	factSchema := dataset.MustSchema([]dataset.Field{
		{Name: "cat_a", Kind: dataset.Nominal},
		{Name: "cat_b", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
		{Name: "y", Kind: dataset.Quantitative},
		{Name: "dim_fk", Kind: dataset.Quantitative},
	})
	dimRows := 1 + rng.Intn(12)
	fb := dataset.NewBuilder("fact", factSchema, rows)
	for i := 0; i < rows; i++ {
		fb.AppendString(0, fmt.Sprintf("a%d", rng.Intn(card)))
		fb.AppendString(1, fmt.Sprintf("b%d", rng.Intn(5)))
		fb.AppendNum(2, rng.NormFloat64()*100)
		fb.AppendNum(3, rng.Float64()*1e4-5e3)
		fb.AppendNum(4, float64(rng.Intn(dimRows)))
	}
	fact, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !normalized {
		return &dataset.Database{Fact: fact}
	}
	dimSchema := dataset.MustSchema([]dataset.Field{
		{Name: "dim_cat", Kind: dataset.Nominal},
		{Name: "dim_q", Kind: dataset.Quantitative},
	})
	db := dataset.NewBuilder("dim", dimSchema, dimRows)
	for i := 0; i < dimRows; i++ {
		db.AppendString(0, fmt.Sprintf("d%d", i%7))
		db.AppendNum(1, float64(i)*3.5-10)
	}
	dim, err := db.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Database{
		Fact:       fact,
		Dimensions: []*dataset.Dimension{{Table: dim, FKColumn: "dim_fk"}},
	}
}

// randomQuery draws a query against randomDB's schema.
func randomQuery(rng *rand.Rand, normalized bool) *query.Query {
	nominals := []string{"cat_a", "cat_b"}
	quants := []string{"x", "y"}
	if normalized {
		nominals = append(nominals, "dim_cat")
		quants = append(quants, "dim_q")
	}
	randBin := func() query.Binning {
		if rng.Intn(2) == 0 {
			return query.Binning{Field: nominals[rng.Intn(len(nominals))], Kind: dataset.Nominal}
		}
		return query.Binning{
			Field:  quants[rng.Intn(len(quants))],
			Kind:   dataset.Quantitative,
			Width:  []float64{10, 250, 1e3}[rng.Intn(3)],
			Origin: []float64{0, -37.5}[rng.Intn(2)],
		}
	}
	q := &query.Query{
		VizName: "v",
		Table:   "fact",
		Bins:    []query.Binning{randBin()},
	}
	if rng.Intn(2) == 0 {
		q.Bins = append(q.Bins, randBin())
	}
	funcs := []query.AggFunc{query.Count, query.Sum, query.Avg, query.Min, query.Max}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		f := funcs[rng.Intn(len(funcs))]
		agg := query.Aggregate{Func: f}
		if f != query.Count || rng.Intn(2) == 0 {
			agg.Field = quants[rng.Intn(len(quants))]
		}
		if f == query.Count && rng.Intn(2) == 0 {
			agg.Field = ""
		}
		q.Aggs = append(q.Aggs, agg)
	}
	for n := rng.Intn(3); n > 0; n-- {
		if rng.Intn(2) == 0 {
			vals := []string{fmt.Sprintf("a%d", rng.Intn(50)), "b1", "nope"}
			q.Filter.Predicates = append(q.Filter.Predicates, query.Predicate{
				Field: nominals[rng.Intn(len(nominals))], Op: query.OpIn,
				Values: vals[:1+rng.Intn(len(vals))],
			})
		} else {
			lo := rng.Float64()*400 - 200
			q.Filter.Predicates = append(q.Filter.Predicates, query.Predicate{
				Field: quants[rng.Intn(len(quants))], Op: query.OpRange,
				Lo: lo, Hi: lo + rng.Float64()*500 + 1,
			})
		}
	}
	return q
}

// fixFilterFields rewrites IN/range predicates whose field kind does not
// match the randomly drawn operator (the generator may pair them wrongly).
func fixFilterFields(q *query.Query) {
	for i, p := range q.Filter.Predicates {
		switch p.Op {
		case query.OpIn:
			switch p.Field {
			case "x", "y", "dim_q":
				q.Filter.Predicates[i].Field = "cat_a"
			}
		case query.OpRange:
			switch p.Field {
			case "cat_a", "cat_b", "dim_cat":
				q.Filter.Predicates[i].Field = "x"
			}
		}
	}
}

// binStates collects a state's bins through the ordered iterator, checking
// the order on the way.
func binStates(t *testing.T, label string, g *GroupState) map[query.BinKey]Accum {
	t.Helper()
	out := make(map[query.BinKey]Accum)
	g.ForEachBin(func(key query.BinKey, acc Accum) {
		if _, dup := out[key]; dup {
			t.Fatalf("%s: bin %v yielded twice", label, key)
		}
		out[key] = acc
	})
	if len(out) != g.NumGroups() {
		t.Fatalf("%s: ForEachBin yielded %d bins, NumGroups %d", label, len(out), g.NumGroups())
	}
	return out
}

// assertStatesEqual compares two group states bitwise: identical bin keys
// and identical accumulator contents (counts, moments, min/max).
func assertStatesEqual(t *testing.T, label string, want, got *GroupState) {
	t.Helper()
	w, g := binStates(t, label, want), binStates(t, label, got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d groups, want %d", label, len(g), len(w))
	}
	for key, wa := range w {
		ga, ok := g[key]
		if !ok {
			t.Fatalf("%s: missing bin %v", label, key)
		}
		if !reflect.DeepEqual(wa, ga) {
			t.Fatalf("%s: bin %v accumulators differ:\n want %+v\n  got %+v", label, key, wa, ga)
		}
	}
}

// arithmeticTwin compiles q the way a plan looks when no bin codes exist and
// none may be built: against a copy of db's fact table that shares its
// storage but none of its memos. Every quantitative dimension of the result
// computes its index from the values — the kernels a code-reading plan must
// equal bitwise.
func arithmeticTwin(t *testing.T, db *dataset.Database, q *query.Query) *Compiled {
	t.Helper()
	cols := make([]*dataset.Column, len(db.Fact.Columns))
	for i, c := range db.Fact.Columns {
		cols[i] = &dataset.Column{Field: c.Field, Nums: c.Nums, Codes: c.Codes, Dict: c.Dict}
	}
	fact, err := dataset.NewTable(db.Fact.Name, db.Fact.Schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile(&dataset.Database{Fact: fact, Dimensions: db.Dimensions}, q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range plan.binKern {
		if _, ok := k.(codeBin); ok {
			t.Fatal("a plan compiled without building codes on a memo-less table reads a code column")
		}
	}
	return plan
}

// checkVectorizedMatchesScalar runs one (database, query) pair through every
// scan path — scalar reference, batch over the dense table (reading bin-code
// columns where the plan has them, and again computing every index from the
// values), batch over the key-indexed table, explicit row lists, chunk-split
// + Merge — and asserts they produce bitwise-identical group states.
func checkVectorizedMatchesScalar(t *testing.T, rng *rand.Rand, label string, db *dataset.Database, q *query.Query) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatalf("%s: invalid query: %v", label, err)
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	planMap, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	planMap.disableDense()

	ref := NewGroupState(plan)
	ref.ScanRangeScalar(0, plan.NumRows)

	vec := NewGroupState(plan)
	vec.ScanRange(0, plan.NumRows)
	assertStatesEqual(t, fmt.Sprintf("%s range (dense=%v)", label, plan.geom.slots() > 0), ref, vec)

	planArith := arithmeticTwin(t, db, q)
	arith := NewGroupState(planArith)
	arith.ScanRange(0, plan.NumRows)
	assertStatesEqual(t, label+" range arithmetic kernels", ref, arith)

	viaMap := NewGroupState(planMap)
	viaMap.ScanRange(0, plan.NumRows)
	assertStatesEqual(t, label+" range map-path", ref, viaMap)

	// Explicit row lists in permuted order (the progressive engines'
	// access pattern): scalar and batch must agree row-for-row.
	perm := rng.Perm(plan.NumRows)
	rowsList := make([]uint32, len(perm))
	for i, p := range perm {
		rowsList[i] = uint32(p)
	}
	prefix := rowsList[:rng.Intn(len(rowsList)+1)]
	refRows := NewGroupState(plan)
	refRows.ScanRowsScalar(prefix)
	vecRows := NewGroupState(plan)
	vecRows.ScanRows(prefix)
	assertStatesEqual(t, label+" rows", refRows, vecRows)
	arithRows := NewGroupState(planArith)
	arithRows.ScanRows(prefix)
	assertStatesEqual(t, label+" rows arithmetic kernels", refRows, arithRows)

	// Chunked parallel-scan shape: split into worker states and Merge.
	// Merged moments differ bitwise from a sequential whole
	// scan (parallel-merge vs sequential folding), so the whole-scan
	// comparison checks counts; the full accumulator contents are
	// checked dense-vs-map, where the op order is identical.
	if plan.NumRows > 1 {
		split := 1 + rng.Intn(plan.NumRows-1)
		a, b := NewGroupState(plan), NewGroupState(planMap)
		a.ScanRange(0, split)
		b.ScanRange(split, plan.NumRows)
		a.Merge(b)
		am, bm := NewGroupState(planMap), NewGroupState(plan)
		am.ScanRange(0, split)
		bm.ScanRange(split, plan.NumRows)
		am.Merge(bm)
		assertStatesEqual(t, label+" merge dense-vs-map", a, am)
		whole := binStates(t, label, ref)
		merged := binStates(t, label, a)
		if len(merged) != len(whole) {
			t.Fatalf("%s merge: %d groups, want %d", label, len(merged), len(whole))
		}
		for key, wa := range whole {
			ga, ok := merged[key]
			if !ok {
				t.Fatalf("%s merge: missing bin %v", label, key)
			}
			if wa.N != ga.N {
				t.Fatalf("%s merge: bin %v N=%d, want %d", label, key, ga.N, wa.N)
			}
		}
	}
}

// TestVectorizedMatchesScalar is the kernel property test: on randomized
// schemas, queries and filters, the batch path (dense and key-indexed
// tables), the scalar reference path, and a chunk-split + Merge run all
// produce bitwise-identical group states.
func TestVectorizedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		normalized := rng.Intn(3) == 0
		rows := rng.Intn(3 * BatchRows) // covers empty, sub-batch and multi-batch
		db := randomDB(t, rng, rows, normalized)
		q := randomQuery(rng, normalized)
		fixFilterFields(q)
		checkVectorizedMatchesScalar(t, rng, fmt.Sprintf("trial %d", trial), db, q)
	}
}

// TestVectorizedMatchesScalarEdges pins the shapes the randomized draw only
// hits by luck: filters that pass nothing and everything, a tail batch
// shorter than BatchRows after full ones, a NaN-bearing bin column (no
// bounded domain, so the table is key-indexed even for the "dense" plan),
// and MIN/MAX-only plans (a table without a moments column).
func TestVectorizedMatchesScalarEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows = 2*BatchRows + 37
	for _, normalized := range []bool{false, true} {
		db := randomDB(t, rng, rows, normalized)
		// x is N(0,100): the first range passes no row, the second every row;
		// "nope" is in no dictionary, b0..b4 is all of cat_b.
		none := []query.Predicate{
			{Field: "x", Op: query.OpRange, Lo: 1e9, Hi: 2e9},
			{Field: "cat_b", Op: query.OpIn, Values: []string{"nope"}},
			{Field: "cat_b", Op: query.OpIn, Values: []string{"nope", "nada"}},
		}
		all := []query.Predicate{
			{Field: "x", Op: query.OpRange, Lo: -1e9, Hi: 1e9},
			{Field: "cat_b", Op: query.OpIn, Values: []string{"b0", "b1", "b2", "b3", "b4"}},
		}
		aggSets := [][]query.Aggregate{
			{{Func: query.Count}},
			{{Func: query.Avg, Field: "y"}},
			{{Func: query.Min, Field: "y"}, {Func: query.Max, Field: "x"}},
			{{Func: query.Max, Field: "y"}},
		}
		binSets := [][]query.Binning{
			{{Field: "cat_a", Kind: dataset.Nominal}},
			{{Field: "x", Kind: dataset.Quantitative, Width: 50, Origin: -37.5},
				{Field: "cat_b", Kind: dataset.Nominal}},
		}
		for bi, bins := range binSets {
			for ai, aggs := range aggSets {
				for pi, p := range append(append([]query.Predicate{}, none...), all...) {
					q := &query.Query{VizName: "v", Table: "fact", Bins: bins, Aggs: aggs,
						Filter: query.Filter{Predicates: []query.Predicate{p}}}
					label := fmt.Sprintf("normalized=%v bins %d aggs %d pred %d", normalized, bi, ai, pi)
					checkVectorizedMatchesScalar(t, rng, label, db, q)
					// Both at once: refine sees an all-pass vector, then empties it.
					q.Filter.Predicates = []query.Predicate{all[0], p}
					checkVectorizedMatchesScalar(t, rng, label+" after all-pass", db, q)
				}
			}
		}
	}

	// NaN in the binned column: Column.MinMax has no answer, the planner has
	// no domain, and every path must still agree on whichever bin the
	// platform's float→int conversion sends NaN to.
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat_a", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
		{Name: "y", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("fact", schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendString(0, fmt.Sprintf("a%d", rng.Intn(9)))
		x := rng.NormFloat64() * 100
		if i%97 == 0 {
			x = math.NaN()
		}
		b.AppendNum(1, x)
		b.AppendNum(2, rng.Float64()*1e4-5e3)
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &dataset.Database{Fact: fact}
	for _, bins := range [][]query.Binning{
		{{Field: "x", Kind: dataset.Quantitative, Width: 25}},
		{{Field: "cat_a", Kind: dataset.Nominal}, {Field: "x", Kind: dataset.Quantitative, Width: 25}},
	} {
		q := &query.Query{VizName: "v", Table: "fact", Bins: bins,
			Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Sum, Field: "y"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "y", Op: query.OpRange, Lo: -4000, Hi: 4000}}}}
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.geom.slots() > 0 {
			t.Fatal("a NaN-bearing bin column must not get a dense table")
		}
		checkVectorizedMatchesScalar(t, rng, fmt.Sprintf("NaN bins %dD", len(bins)), db, q)
	}
}

// TestCodeKernelMatchesArithmetic is the property test of the derived code
// columns: on tables built to sit on every edge binIdx has — values exactly
// on bin boundaries on both sides of a negative origin, signed zeros,
// integer-valued columns under integer widths, one row, no rows — a plan
// reading codes, its arithmetic twin and the scalar closures agree bitwise,
// 1-D and 2-D (quant×quant, quant×nominal, either order), over ranges,
// selection vectors and explicit row lists.
func TestCodeKernelMatchesArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat", Kind: dataset.Nominal},
		{Name: "edge", Kind: dataset.Quantitative},
		{Name: "ints", Kind: dataset.Quantitative},
		{Name: "y", Kind: dataset.Quantitative},
	})
	for _, shape := range []struct{ width, origin float64 }{
		{1, 0}, {5, -3}, {0.25, -37.5}, {20, 12.25},
	} {
		for _, rows := range []int{0, 1, 2, BatchRows - 1, 2*BatchRows + 37} {
			b := dataset.NewBuilder("fact", schema, rows)
			for i := 0; i < rows; i++ {
				b.AppendString(0, fmt.Sprintf("c%d", rng.Intn(6)))
				// A bin boundary, k bins from the origin on either side; every
				// eighth row steps just inside the bin below it.
				edge := shape.origin + float64(rng.Intn(201)-100)*shape.width
				switch i % 8 {
				case 0:
					edge = math.Nextafter(edge, math.Inf(-1))
				case 1:
					edge = math.Copysign(0, -1)
				case 2:
					edge = 0
				}
				b.AppendNum(1, edge)
				b.AppendNum(2, float64(rng.Intn(241)-120))
				b.AppendNum(3, rng.NormFloat64()*50)
			}
			fact, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			db := &dataset.Database{Fact: fact}
			edge := query.Binning{Field: "edge", Kind: dataset.Quantitative, Width: shape.width, Origin: shape.origin}
			ints := query.Binning{Field: "ints", Kind: dataset.Quantitative, Width: math.Ceil(shape.width), Origin: math.Trunc(shape.origin)}
			cat := query.Binning{Field: "cat", Kind: dataset.Nominal}
			for bi, bins := range [][]query.Binning{
				{edge}, {ints}, {edge, cat}, {cat, ints},
				{{Field: "edge", Kind: dataset.Quantitative, Width: 16 * shape.width, Origin: shape.origin}, ints},
			} {
				for fi, filter := range []query.Filter{
					{},
					{Predicates: []query.Predicate{{Field: "y", Op: query.OpRange, Lo: -20, Hi: 60}}},
				} {
					q := &query.Query{VizName: "v", Table: "fact", Bins: bins, Filter: filter,
						Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "y"}, {Func: query.Min, Field: "edge"}}}
					label := fmt.Sprintf("width %v origin %v rows %d bins %d filter %d", shape.width, shape.origin, rows, bi, fi)
					plan, err := Compile(db, q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if rows > 0 {
						if plan.geom.slots() == 0 {
							t.Fatalf("%s: want a dense plan", label)
						}
						for d, k := range plan.binKern {
							if _, ok := k.(codeBin); ok != (bins[d].Kind == dataset.Quantitative) {
								t.Fatalf("%s: dimension %d runs %T", label, d, k)
							}
						}
					}
					checkVectorizedMatchesScalar(t, rng, label, db, q)
				}
			}
		}
	}
}

// TestMergeAcrossDenseGeometry is the shape sharedscan's Extend produces: a
// shard filled under one plan merges into a state of the same query
// recompiled against a grown table, whose dense domain is wider — different
// slots for the same keys. The re-keyed merge must equal, bitwise, the merge
// of the same two fragments through key-indexed tables.
func TestMergeAcrossDenseGeometry(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
	})
	rng := rand.New(rand.NewSource(3))
	build := func(rows int, spread float64, cats int) *dataset.Database {
		r := rand.New(rand.NewSource(99)) // same prefix rows in both tables
		b := dataset.NewBuilder("fact", schema, rows)
		for i := 0; i < rows; i++ {
			s, c := 100.0, 4
			if i >= 5000 {
				s, c = spread, cats
			}
			b.AppendString(0, fmt.Sprintf("c%d", r.Intn(c)))
			b.AppendNum(1, r.NormFloat64()*s)
		}
		fact, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return &dataset.Database{Fact: fact}
	}
	small, grown := build(5000, 0, 0), build(9000, 400, 9)
	for _, q := range []*query.Query{
		{VizName: "v", Table: "fact",
			Bins: []query.Binning{{Field: "x", Kind: dataset.Quantitative, Width: 20}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "x"}, {Func: query.Min, Field: "x"}}},
		{VizName: "v", Table: "fact",
			Bins: []query.Binning{{Field: "x", Kind: dataset.Quantitative, Width: 40},
				{Field: "cat", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}, {Func: query.Max, Field: "x"}}},
	} {
		oldPlan, err := Compile(small, q)
		if err != nil {
			t.Fatal(err)
		}
		newPlan, err := Compile(grown, q)
		if err != nil {
			t.Fatal(err)
		}
		if oldPlan.geom.slots() == 0 || newPlan.geom.slots() == 0 || oldPlan.geom == newPlan.geom {
			t.Fatalf("want two different dense geometries, got %+v and %+v", oldPlan.geom, newPlan.geom)
		}
		newMap, err := Compile(grown, q)
		if err != nil {
			t.Fatal(err)
		}
		newMap.disableDense()
		split := 1 + rng.Intn(4999)

		shard := NewGroupState(oldPlan) // filled before the table grew
		shard.ScanRange(0, split)
		migrated := NewGroupState(newPlan)
		migrated.Merge(shard)
		migrated.ScanRange(split, newPlan.NumRows)

		viaMap := NewGroupState(newMap)
		viaMap.Merge(shard)
		viaMap.ScanRange(split, newPlan.NumRows)
		assertStatesEqual(t, "migrated dense vs indexed", viaMap, migrated)

		// And the other direction of representation: an indexed fragment
		// folding into the wide dense table.
		tail := NewGroupState(newMap)
		tail.ScanRange(split, newPlan.NumRows)
		a := NewGroupState(newPlan)
		a.Merge(shard)
		a.Merge(tail)
		b := NewGroupState(newMap)
		b.Merge(shard)
		b.Merge(tail)
		assertStatesEqual(t, "three-way merge dense vs indexed", b, a)
		whole := NewGroupState(newPlan)
		whole.ScanRange(0, newPlan.NumRows)
		if a.NumGroups() != whole.NumGroups() {
			t.Fatalf("merged %d groups, whole scan %d", a.NumGroups(), whole.NumGroups())
		}
	}
}

// TestInMapPredKernel exercises the map-fallback IN kernel directly: it is
// only selected for dictionaries beyond inBitmapMax, far larger than the
// randomized property test builds, so it gets a dedicated check — in both
// its direct and FK-indirected forms, against the equivalent bitmap kernel.
func TestInMapPredKernel(t *testing.T) {
	// Fact rows 0..5 carry codes into a 4-entry "dictionary"; FK rows remap
	// fact rows onto a 4-row dimension whose codes slice is SHORTER than the
	// fact table, catching any kernel that indexes codes by fact row.
	factCodes := []uint32{0, 2, 1, 3, 2, 0}
	dimCodes := []uint32{3, 0, 2, 1}
	fk := []float64{3, 1, 0, 2, 3, 1}
	want := map[uint32]struct{}{0: {}, 2: {}}
	bits := []bool{true, false, true, false}

	check := func(label string, got, exp predKernel) {
		t.Helper()
		g := got.selectRange(0, 6, make([]uint32, 6))
		e := exp.selectRange(0, 6, make([]uint32, 6))
		if !reflect.DeepEqual(g, e) || len(g) == 0 {
			t.Errorf("%s selectRange = %v, want %v, not empty", label, g, e)
		}
		// An explicit row list is a selection vector to refine (how ScanRows
		// runs every predicate).
		rows := []uint32{5, 3, 0, 4, 1, 2}
		g = got.refine(append([]uint32(nil), rows...))
		e = exp.refine(append([]uint32(nil), rows...))
		if !reflect.DeepEqual(g, e) || len(g) == 0 {
			t.Errorf("%s refine = %v, want %v, not empty", label, g, e)
		}
	}
	check("direct",
		inMapPred{inOrder: inOrder{codes: factCodes}, want: want},
		inBitmapDirectPred{inOrder: inOrder{codes: factCodes}, want: bits})
	check("fk",
		inMapPred{inOrder: inOrder{codes: dimCodes}, fk: fk, want: want},
		inBitmapFKPred{codes: dimCodes, fk: fk, want: bits})
}

// outOfDomainDB is the table the two out-of-domain walls corrupt: 100 rows, a
// 3-value nominal column and x = 0, step, 2·step, …
func outOfDomainDB(t *testing.T, step float64) *dataset.Database {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("fact", schema, 100)
	for i := 0; i < 100; i++ {
		b.AppendString(0, fmt.Sprintf("c%d", i%3))
		b.AppendNum(1, step*float64(i))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Database{Fact: fact}
}

// TestDenseOutOfDomainKeyPanics pins the failure mode of a broken column
// invariant — values changed under a compiled plan, so the planned dense
// domain is stale: the row must panic the scan, never fold into another bin.
// The 2-D plan range-checks in combine; the 1-D plan has only the table's
// bounds check, which a component wrapping int32 would slip past but for the
// arithmetic kernels' narrowing guard (the +2^32 case lands exactly on slot
// 1). The 298-bin domain is past a code byte, so these plans compute the
// index from Nums; TestCodeBinOutOfDomainCodePanics is the twin for plans
// that read a code column instead.
func TestDenseOutOfDomainKeyPanics(t *testing.T) {
	const width = 10.0
	build := func() *dataset.Database { return outOfDomainDB(t, 30) } // bins 0..297, every third
	quant := query.Binning{Field: "x", Kind: dataset.Quantitative, Width: width}
	all := query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: -1e300, Hi: 1e300}}}
	for _, stale := range []struct {
		name string
		v    float64
	}{
		{"one bin above", 2980},
		{"one bin below", -1},
		{"wraps int32 onto slot 1", width * (1<<32 + 1)},
		{"wraps int32 from below", -width * (1<<32 - 1)},
	} {
		for _, shape := range []struct {
			name   string
			bins   []query.Binning
			filter query.Filter
		}{
			{"1-D range", []query.Binning{quant}, query.Filter{}},
			{"1-D selection", []query.Binning{quant}, all},
			{"2-D range", []query.Binning{quant, {Field: "cat", Kind: dataset.Nominal}}, query.Filter{}},
		} {
			db := build()
			plan, err := Compile(db, &query.Query{VizName: "v", Table: "fact", Bins: shape.bins,
				Aggs: []query.Aggregate{{Func: query.Count}}, Filter: shape.filter})
			if err != nil {
				t.Fatal(err)
			}
			if plan.geom.slots() == 0 {
				t.Fatal("want a dense plan")
			}
			if _, ok := plan.binKern[0].(quantDirectBin); !ok {
				t.Fatalf("want the arithmetic kernel on a 298-bin domain, got %T", plan.binKern[0])
			}
			db.Fact.Column("x").Nums[50] = stale.v // behind the plan's back
			gs := NewGroupState(plan)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %s: scan folded an out-of-domain key (%d bins)", stale.name, shape.name, gs.NumGroups())
					}
				}()
				gs.ScanRange(0, plan.NumRows)
			}()
		}
	}
}

// TestCodeBinOutOfDomainCodePanics is the same wall for plans that bin
// through a derived code column: a code at or past the planned domain —
// written into the memo behind the plan, the one way to get there, since a
// code column is only ever computed from values inside the bounds the domain
// came from — must panic the scan, in the table access (1-D) or in the 2-D
// domain check (pairBin here; combine for two-pass plans), and never fold
// into another bin. A widened byte plus the plan's offset cannot wrap int32,
// so there is no narrowing case to guard.
func TestCodeBinOutOfDomainCodePanics(t *testing.T) {
	build := func() *dataset.Database { return outOfDomainDB(t, 1) } // bins 0..9
	quant := query.Binning{Field: "x", Kind: dataset.Quantitative, Width: 10}
	all := query.Filter{Predicates: []query.Predicate{{Field: "x", Op: query.OpRange, Lo: -1e300, Hi: 1e300}}}
	for _, stale := range []struct {
		name string
		code func(k codeBin) uint8 // k.off is minus the code of the domain's first bin
	}{
		{"one bin above", func(k codeBin) uint8 { return uint8(10 - k.off) }},
		{"one bin below", func(k codeBin) uint8 { return uint8(-1 - k.off) }},
		{"byte minimum", func(codeBin) uint8 { return 0 }},
		{"byte maximum", func(codeBin) uint8 { return 255 }},
	} {
		for _, shape := range []struct {
			name   string
			bins   []query.Binning
			filter query.Filter
		}{
			{"1-D range", []query.Binning{quant}, query.Filter{}},
			{"1-D selection", []query.Binning{quant}, all},
			{"2-D range", []query.Binning{quant, {Field: "cat", Kind: dataset.Nominal}}, query.Filter{}},
			{"2-D selection", []query.Binning{{Field: "cat", Kind: dataset.Nominal}, quant}, all},
		} {
			plan, err := Compile(build(), &query.Query{VizName: "v", Table: "fact", Bins: shape.bins,
				Aggs: []query.Aggregate{{Func: query.Count}}, Filter: shape.filter})
			if err != nil {
				t.Fatal(err)
			}
			var kern codeBin
			for _, k := range plan.binKern {
				if ck, ok := k.(codeBin); ok {
					kern = ck
				}
			}
			if kern.codes == nil {
				t.Fatalf("%s: want a code kernel on a 10-bin fact column, got %T", shape.name, plan.binKern)
			}
			kern.codes[50] = stale.code(kern) // the plan's slice is the memo's storage
			gs := NewGroupState(plan)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %s: scan folded an out-of-domain code (%d bins)", stale.name, shape.name, gs.NumGroups())
					}
				}()
				gs.ScanRange(0, plan.NumRows)
			}()
		}
	}
}

// TestDenseSlotRoundTrip checks the dense key<->slot mapping on 1D and 2D
// plans, including negative quantitative bin indices.
func TestDenseSlotRoundTrip(t *testing.T) {
	c := denseGeom{loA: -3, sizeA: 10, loB: 0, sizeB: 1}
	for a := int64(-3); a < 7; a++ {
		slot, ok := c.slot(query.BinKey{A: a})
		if !ok {
			t.Fatalf("key %d not in domain", a)
		}
		if got := c.key(slot); got.A != a || got.B != 0 {
			t.Fatalf("roundtrip %d -> %d -> %v", a, slot, got)
		}
	}
	if _, ok := c.slot(query.BinKey{A: 7}); ok {
		t.Fatal("key above domain accepted")
	}
	if _, ok := c.slot(query.BinKey{A: -4}); ok {
		t.Fatal("key below domain accepted")
	}

	c2 := denseGeom{loA: 0, sizeA: 4, loB: -2, sizeB: 5}
	seen := make(map[int]bool)
	for a := int64(0); a < 4; a++ {
		for b := int64(-2); b < 3; b++ {
			key := query.BinKey{A: a, B: b}
			slot, ok := c2.slot(key)
			if !ok {
				t.Fatalf("key %v not in domain", key)
			}
			if seen[slot] {
				t.Fatalf("slot %d reused", slot)
			}
			seen[slot] = true
			if got := c2.key(slot); got != key {
				t.Fatalf("roundtrip %v -> %d -> %v", key, slot, got)
			}
		}
	}
	if len(seen) != 20 {
		t.Fatalf("%d distinct slots, want 20", len(seen))
	}
}

// TestBinIdxMatchesFloor pins the branch-free binIdx to the branching form
// it replaced, on every edge the correction term has: negative and positive
// integers and non-integers, signed zeros, values beyond int64, NaN and the
// infinities (whatever the platform's conversion yields, both forms must
// yield it).
func TestBinIdxMatchesFloor(t *testing.T) {
	ref := func(v, width, origin float64) int64 {
		d := (v - origin) / width
		i := int64(d)
		if d < 0 && float64(i) != d {
			i--
		}
		return i
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2.999999, -2.999999, 3, -3,
		1e18, -1e18, 1e300, -1e300, math.MaxInt64, math.MinInt64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.NormFloat64()*1e3, float64(rng.Intn(200)-100))
	}
	for _, width := range []float64{1, 0.1, 20, 250, 1e-9} {
		for _, origin := range []float64{0, -37.5, 12.25} {
			for _, v := range vals {
				if got, want := binIdx(v, width, origin), ref(v, width, origin); got != want {
					t.Fatalf("binIdx(%v, %v, %v) = %d, want %d", v, width, origin, got, want)
				}
			}
		}
	}
}
