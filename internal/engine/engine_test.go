package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"idebench/internal/dataset"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// smallDB builds a tiny deterministic database for kernel tests:
// 8 rows, carrier in {AA,UA}, delay known values.
func smallDB(t *testing.T) *dataset.Database {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "delay", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("flights", schema, 8)
	rows := []struct {
		c string
		d float64
	}{
		{"AA", 5}, {"AA", 15}, {"UA", -5}, {"UA", 25},
		{"AA", 10}, {"UA", 0}, {"AA", -10}, {"UA", 30},
	}
	for _, r := range rows {
		b.AppendString(0, r.c)
		b.AppendNum(1, r.d)
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Database{Fact: fact}
}

// normDB builds a 2-row-dimension star schema version.
func normDB(t *testing.T) *dataset.Database {
	t.Helper()
	factSchema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier_fk", Kind: dataset.Quantitative},
		{Name: "delay", Kind: dataset.Quantitative},
	})
	fb := dataset.NewBuilder("flights", factSchema, 4)
	for _, r := range []struct {
		fk, d float64
	}{{0, 5}, {1, 15}, {0, 25}, {1, -5}} {
		fb.AppendNum(0, r.fk)
		fb.AppendNum(1, r.d)
	}
	fact, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	dimSchema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "hub_delay", Kind: dataset.Quantitative},
	})
	db := dataset.NewBuilder("carriers", dimSchema, 2)
	db.AppendString(0, "AA")
	db.AppendNum(1, 100)
	db.AppendString(0, "UA")
	db.AppendNum(1, 200)
	dim, err := db.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Database{
		Fact:       fact,
		Dimensions: []*dataset.Dimension{{Table: dim, FKColumn: "carrier_fk"}},
	}
}

func countByCarrier() *query.Query {
	return &query.Query{
		VizName: "v",
		Table:   "flights",
		Bins:    []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:    []query.Aggregate{{Func: query.Count}},
	}
}

func TestCompileAndExactCount(t *testing.T) {
	db := smallDB(t)
	plan, err := Compile(db, countByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	if !res.Complete {
		t.Error("exact snapshot should be complete")
	}
	dict := db.Fact.Column("carrier").Dict
	aa, _ := dict.Lookup("AA")
	ua, _ := dict.Lookup("UA")
	if v, _ := res.ValueAt(query.BinKey{A: int64(aa)}, 0); v != 4 {
		t.Errorf("AA count = %v, want 4", v)
	}
	if v, _ := res.ValueAt(query.BinKey{A: int64(ua)}, 0); v != 4 {
		t.Errorf("UA count = %v, want 4", v)
	}
}

func TestCompileAllAggregates(t *testing.T) {
	db := smallDB(t)
	q := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Sum, Field: "delay"},
			{Func: query.Avg, Field: "delay"},
			{Func: query.Min, Field: "delay"},
			{Func: query.Max, Field: "delay"},
		},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	dict := db.Fact.Column("carrier").Dict
	aa, _ := dict.Lookup("AA")
	bv := res.Bins[query.BinKey{A: int64(aa)}]
	// AA delays: 5, 15, 10, -10 → count 4, sum 20, avg 5, min -10, max 15.
	want := []float64{4, 20, 5, -10, 15}
	for i, w := range want {
		if math.Abs(bv.Values[i]-w) > 1e-9 {
			t.Errorf("agg %d = %v, want %v", i, bv.Values[i], w)
		}
	}
}

func TestCompileQuantitativeBinning(t *testing.T) {
	db := smallDB(t)
	q := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "delay", Kind: dataset.Quantitative, Width: 10}},
		Aggs:  []query.Aggregate{{Func: query.Count}},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	// delays: 5,15,-5,25,10,0,-10,30 → bins: 0:{5,0}, 1:{15,10}, -1:{-5,-10}, 2:{25}, 3:{30}
	wants := map[int64]float64{0: 2, 1: 2, -1: 2, 2: 1, 3: 1}
	for bin, w := range wants {
		if v, _ := res.ValueAt(query.BinKey{A: bin}, 0); v != w {
			t.Errorf("bin %d count = %v, want %v", bin, v, w)
		}
	}
	if len(res.Bins) != len(wants) {
		t.Errorf("bin count %d, want %d", len(res.Bins), len(wants))
	}
}

func TestCompile2D(t *testing.T) {
	db := smallDB(t)
	q := &query.Query{
		Table: "flights",
		Bins: []query.Binning{
			{Field: "carrier", Kind: dataset.Nominal},
			{Field: "delay", Kind: dataset.Quantitative, Width: 20},
		},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	dict := db.Fact.Column("carrier").Dict
	ua, _ := dict.Lookup("UA")
	// UA delays: -5 (bin -1), 25 (bin 1), 0 (bin 0), 30 (bin 1).
	if v, _ := res.ValueAt(query.BinKey{A: int64(ua), B: 1}, 0); v != 2 {
		t.Errorf("UA bin1 = %v, want 2", v)
	}
}

func TestCompileFilters(t *testing.T) {
	db := smallDB(t)
	q := countByCarrier()
	q.Filter = query.Filter{Predicates: []query.Predicate{
		{Field: "delay", Op: query.OpRange, Lo: 0, Hi: 20},
	}}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	// delays in [0,20): AA:5, AA:15, AA:10; UA:0 → AA 3, UA 1.
	dict := db.Fact.Column("carrier").Dict
	aa, _ := dict.Lookup("AA")
	ua, _ := dict.Lookup("UA")
	if v, _ := res.ValueAt(query.BinKey{A: int64(aa)}, 0); v != 3 {
		t.Errorf("AA = %v, want 3", v)
	}
	if v, _ := res.ValueAt(query.BinKey{A: int64(ua)}, 0); v != 1 {
		t.Errorf("UA = %v, want 1", v)
	}

	// IN filter + range conjunction.
	q2 := countByCarrier()
	q2.Filter = query.Filter{Predicates: []query.Predicate{
		{Field: "carrier", Op: query.OpIn, Values: []string{"UA"}},
		{Field: "delay", Op: query.OpRange, Lo: 0, Hi: 100},
	}}
	plan2, err := Compile(db, q2)
	if err != nil {
		t.Fatal(err)
	}
	gs2 := NewGroupState(plan2)
	gs2.ScanRange(0, plan2.NumRows)
	res2 := gs2.SnapshotExact()
	if len(res2.Bins) != 1 {
		t.Fatalf("bins = %d, want 1", len(res2.Bins))
	}
	if v, _ := res2.ValueAt(query.BinKey{A: int64(ua)}, 0); v != 3 {
		t.Errorf("UA filtered = %v, want 3 (0,25,30)", v)
	}
}

func TestCompileInFilterUnknownValue(t *testing.T) {
	db := smallDB(t)
	q := countByCarrier()
	q.Filter = query.Filter{Predicates: []query.Predicate{
		{Field: "carrier", Op: query.OpIn, Values: []string{"ZZ"}},
	}}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	if gs.NumGroups() != 0 {
		t.Error("unknown IN value should match nothing")
	}
}

func TestCompileMultiValueIn(t *testing.T) {
	db := smallDB(t)
	q := countByCarrier()
	q.Filter = query.Filter{Predicates: []query.Predicate{
		{Field: "carrier", Op: query.OpIn, Values: []string{"AA", "UA"}},
	}}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	if gs.NumGroups() != 2 {
		t.Errorf("groups = %d, want 2", gs.NumGroups())
	}
}

func TestCompileErrors(t *testing.T) {
	db := smallDB(t)
	cases := []struct {
		name string
		q    *query.Query
	}{
		{"unknown table", &query.Query{Table: "x",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}}},
		{"unknown bin field", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "ghost", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}}}},
		{"kind mismatch", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Quantitative, Width: 5}},
			Aggs: []query.Aggregate{{Func: query.Count}}}},
		{"agg on nominal", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "carrier"}}}},
		{"agg unknown field", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Sum, Field: "ghost"}}}},
		{"range on nominal", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "carrier", Op: query.OpRange, Lo: 0, Hi: 1}}}}},
		{"in on quantitative", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "delay", Op: query.OpIn, Values: []string{"5"}}}}}},
		{"filter unknown field", &query.Query{Table: "flights",
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "ghost", Op: query.OpRange, Lo: 0, Hi: 1}}}}},
	}
	for _, c := range cases {
		if _, err := Compile(db, c.q); err == nil {
			t.Errorf("%s: expected compile error", c.name)
		}
	}
}

func TestCompileNormalizedJoin(t *testing.T) {
	db := normDB(t)
	q := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Avg, Field: "delay"},
			{Func: query.Sum, Field: "hub_delay"}, // dimension attribute aggregate
		},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotExact()
	dict := db.Dimensions[0].Table.Column("carrier").Dict
	aa, _ := dict.Lookup("AA")
	bv := res.Bins[query.BinKey{A: int64(aa)}]
	// AA fact rows: delays 5, 25 → count 2, avg 15, hub_delay sum 200.
	if bv.Values[0] != 2 || bv.Values[1] != 15 || bv.Values[2] != 200 {
		t.Errorf("join aggregates = %v", bv.Values)
	}

	// Filter on dimension attribute.
	q2 := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "delay", Kind: dataset.Quantitative, Width: 100}},
		Aggs:  []query.Aggregate{{Func: query.Count}},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "carrier", Op: query.OpIn, Values: []string{"UA"}},
		}},
	}
	plan2, err := Compile(db, q2)
	if err != nil {
		t.Fatal(err)
	}
	gs2 := NewGroupState(plan2)
	gs2.ScanRange(0, plan2.NumRows)
	var total float64
	for _, bv := range gs2.SnapshotExact().Bins {
		total += bv.Values[0]
	}
	if total != 2 {
		t.Errorf("UA rows = %v, want 2", total)
	}

	// Range filter on dimension quantitative attribute.
	q3 := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:  []query.Aggregate{{Func: query.Count}},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "hub_delay", Op: query.OpRange, Lo: 150, Hi: 300},
		}},
	}
	plan3, err := Compile(db, q3)
	if err != nil {
		t.Fatal(err)
	}
	gs3 := NewGroupState(plan3)
	gs3.ScanRange(0, plan3.NumRows)
	if gs3.NumGroups() != 1 {
		t.Errorf("hub_delay filter groups = %d, want 1 (UA only)", gs3.NumGroups())
	}
}

func TestGroupStateMerge(t *testing.T) {
	db := smallDB(t)
	q := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Avg, Field: "delay"},
			{Func: query.Min, Field: "delay"},
			{Func: query.Max, Field: "delay"},
		},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewGroupState(plan)
	whole.ScanRange(0, 8)
	a := NewGroupState(plan)
	a.ScanRange(0, 3)
	b := NewGroupState(plan)
	b.ScanRange(3, 8)
	a.Merge(b)
	ra, rw := a.SnapshotExact(), whole.SnapshotExact()
	if err := compareResults(ra, rw); err != nil {
		t.Error(err)
	}
}

func compareResults(a, b *query.Result) error {
	if len(a.Bins) != len(b.Bins) {
		return errMismatch("bin count", len(a.Bins), len(b.Bins))
	}
	for k, av := range a.Bins {
		bv, ok := b.Bins[k]
		if !ok {
			return errMismatch("missing bin", k, nil)
		}
		for i := range av.Values {
			if math.Abs(av.Values[i]-bv.Values[i]) > 1e-9 {
				return errMismatch("value", av.Values[i], bv.Values[i])
			}
		}
	}
	return nil
}

type mismatchError struct{ msg string }

func (e mismatchError) Error() string { return e.msg }

func errMismatch(what string, a, b interface{}) error {
	return mismatchError{msg: what + " mismatch"}
}

// Property: merging a randomly split scan equals a whole scan.
func TestGroupStateMergeProperty(t *testing.T) {
	db := smallDB(t)
	plan, err := Compile(db, countByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		split := rng.Intn(9)
		whole := NewGroupState(plan)
		whole.ScanRange(0, 8)
		a := NewGroupState(plan)
		a.ScanRange(0, split)
		b := NewGroupState(plan)
		b.ScanRange(split, 8)
		a.Merge(b)
		return compareResults(a.SnapshotExact(), whole.SnapshotExact()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotScaledEstimates(t *testing.T) {
	// 1000 rows, half "AA" half "UA"; sample the first 100 (known order).
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "delay", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("flights", schema, 1000)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			b.AppendString(0, "AA")
		} else {
			b.AppendString(0, "UA")
		}
		b.AppendNum(1, float64(i%10))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &dataset.Database{Fact: fact}
	q := &query.Query{
		Table: "flights",
		Bins:  []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Sum, Field: "delay"},
			{Func: query.Avg, Field: "delay"},
		},
	}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, 100) // first 100 rows: 50 AA, 50 UA
	z, _ := stats.ZScore(0.95)
	res := gs.SnapshotScaled(100, 1000, 700, 0, z)
	if res.Complete {
		t.Error("partial snapshot should not be complete")
	}
	// The watermark is the absorbed-rows data version, threaded explicitly —
	// not the scaling population (the regression this guards: SnapshotScaled
	// used to stamp populationRows, so a stratified engine's result claimed a
	// freshness its absorbed rows did not back).
	if res.Watermark != 700 {
		t.Errorf("watermark = %d, want the explicit 700, not population 1000", res.Watermark)
	}
	dict := fact.Column("carrier").Dict
	aa, _ := dict.Lookup("AA")
	bv := res.Bins[query.BinKey{A: int64(aa)}]
	// Count estimate: 50 * (1000/100) = 500 (true 500).
	if math.Abs(bv.Values[0]-500) > 1e-9 {
		t.Errorf("count estimate = %v, want 500", bv.Values[0])
	}
	if bv.Margins[0] <= 0 {
		t.Error("count margin should be positive")
	}
	// Sum estimate scales the partial sum by 10.
	var rawSum float64
	for i := 0; i < 100; i += 2 {
		rawSum += float64(i % 10)
	}
	if math.Abs(bv.Values[1]-rawSum*10) > 1e-9 {
		t.Errorf("sum estimate = %v, want %v", bv.Values[1], rawSum*10)
	}
	if bv.Margins[1] <= 0 {
		t.Error("sum margin should be positive")
	}
	// Avg is the within-group mean.
	if math.Abs(bv.Values[2]-rawSum/50) > 1e-9 {
		t.Errorf("avg estimate = %v, want %v", bv.Values[2], rawSum/50)
	}
	if !res.FiniteMargins() {
		t.Error("margins should be finite")
	}
}

func TestSnapshotScaledComplete(t *testing.T) {
	db := smallDB(t)
	plan, err := Compile(db, countByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	res := gs.SnapshotScaled(int64(plan.NumRows), int64(plan.NumRows), int64(plan.NumRows), 0, 1.96)
	if !res.Complete {
		t.Error("full scan snapshot should be complete")
	}
	for _, bv := range res.Bins {
		for _, m := range bv.Margins {
			if m != 0 {
				t.Error("complete snapshot should have zero margins")
			}
		}
	}
}

func TestSnapshotScaledEmpty(t *testing.T) {
	db := smallDB(t)
	plan, err := Compile(db, countByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	res := gs.SnapshotScaled(0, 8, 8, 0, 1.96)
	if len(res.Bins) != 0 || res.Complete {
		t.Error("empty snapshot should have no bins and not be complete")
	}
}

func TestScanRows(t *testing.T) {
	db := smallDB(t)
	plan, err := Compile(db, countByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupState(plan)
	gs.ScanRows([]uint32{0, 1, 4, 6}) // all AA rows
	if gs.NumGroups() != 1 {
		t.Errorf("groups = %d, want 1", gs.NumGroups())
	}
}

func TestBinIdxMatchesQueryBinIndex(t *testing.T) {
	f := func(v, width, origin float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(width) || math.IsInf(width, 0) ||
			math.IsNaN(origin) || math.IsInf(origin, 0) {
			return true
		}
		w := math.Abs(width)
		if w < 1e-6 || w > 1e9 || math.Abs(v) > 1e12 || math.Abs(origin) > 1e12 {
			return true
		}
		b := query.Binning{Field: "x", Kind: dataset.Quantitative, Width: w, Origin: origin}
		return binIdx(v, w, origin) == b.BinIndex(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Normalize()
	if o.Confidence != 0.95 || o.Parallelism < 1 || o.Seed == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	o2 := Options{Confidence: 0.9, Seed: 7, Parallelism: 3}.Normalize()
	if o2.Confidence != 0.9 || o2.Seed != 7 || o2.Parallelism != 3 {
		t.Error("explicit options overwritten")
	}
}

func TestAsyncHandle(t *testing.T) {
	h := NewAsyncHandle()
	if h.Snapshot() != nil {
		t.Error("fresh handle should have nil snapshot")
	}
	res := query.NewResult()
	h.Publish(res)
	if h.Snapshot() != res {
		t.Error("published result not returned")
	}
	select {
	case <-h.Done():
		t.Error("done before Finish")
	default:
	}
	h.Finish()
	h.Finish() // idempotent
	select {
	case <-h.Done():
	default:
		t.Error("Done not closed after Finish")
	}
	if h.Cancelled() {
		t.Error("not cancelled yet")
	}
	h.Cancel()
	if !h.Cancelled() {
		t.Error("Cancel not observed")
	}

	h2 := NewAsyncHandle()
	called := false
	h2.SetSnapshotFunc(func() *query.Result { called = true; return query.NewResult() })
	if h2.Snapshot() == nil || !called {
		t.Error("snapshot func not invoked")
	}
}
