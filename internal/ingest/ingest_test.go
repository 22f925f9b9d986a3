package ingest_test

import (
	"slices"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// fuzzDB builds the small flights database the materialization tests and
// the fuzz target validate against.
func fuzzDB(tb testing.TB) *dataset.Database {
	return enginetest.SmallDB(2000, 5)
}

func TestMaterializeRoundTrip(t *testing.T) {
	db := fuzzDB(t)
	// A batch cut from the table itself must materialize to identical rows.
	b := ingest.FromTable(db.Fact, 100, 120)
	rows, err := ingest.Materialize(db, b)
	if err != nil {
		t.Fatal(err)
	}
	if rows.NumRows() != 20 {
		t.Fatalf("materialized %d rows, want 20", rows.NumRows())
	}
	for j, col := range rows.Columns {
		orig := db.Fact.Columns[j]
		if col.Field.Kind == dataset.Nominal {
			if col.Dict != orig.Dict {
				t.Fatalf("column %q does not share the fact dictionary", col.Field.Name)
			}
			for i := 0; i < 20; i++ {
				if col.Codes[i] != orig.Codes[100+i] {
					t.Fatalf("column %q row %d: code %d, want %d", col.Field.Name, i, col.Codes[i], orig.Codes[100+i])
				}
			}
		} else {
			for i := 0; i < 20; i++ {
				if col.Nums[i] != orig.Nums[100+i] {
					t.Fatalf("column %q row %d: %v, want %v", col.Field.Name, i, col.Nums[i], orig.Nums[100+i])
				}
			}
		}
	}
}

func TestMaterializeRejects(t *testing.T) {
	db := fuzzDB(t)
	valid := func() *ingest.Batch { return ingest.FromTable(db.Fact, 0, 2) }
	wrongTable := valid()
	wrongTable.Table = "nope"
	wrongArity := valid()
	wrongArity.Columns = wrongArity.Columns[:1]
	kindConfusion := valid()
	kindConfusion.Columns[0], kindConfusion.Columns[len(kindConfusion.Columns)-1] =
		kindConfusion.Columns[len(kindConfusion.Columns)-1], kindConfusion.Columns[0]
	cases := map[string]*ingest.Batch{
		"wrong table":    wrongTable,
		"wrong arity":    wrongArity,
		"kind confusion": kindConfusion,
	}
	for name, b := range cases {
		if _, err := ingest.Materialize(db, b); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
}

// TestMaterializeInternsNewValues: a batch's new nominal values enter the
// fact dictionary in the order the rows first use them — the order a
// row-by-row interning gives — so codes, and the checkpoint bytes built from
// them, do not depend on the batch form.
func TestMaterializeInternsNewValues(t *testing.T) {
	db := fuzzDB(t)
	dict := db.Fact.Columns[0].Dict
	before := dict.Len()
	b := ingest.FromTable(db.Fact, 0, 4)
	b.Columns[0].Dict = []string{"ZZ-b", "ZZ-a"}
	b.Columns[0].Codes = []uint32{0, 1, 0, 1}
	rows, err := ingest.Materialize(db, b)
	if err != nil {
		t.Fatal(err)
	}
	if dict.Len() != before+2 || dict.Value(uint32(before)) != "ZZ-b" || dict.Value(uint32(before+1)) != "ZZ-a" {
		t.Fatalf("dictionary grew to %v, want ZZ-b then ZZ-a", dict.Values()[before:])
	}
	want := []uint32{uint32(before), uint32(before + 1), uint32(before), uint32(before + 1)}
	if got := rows.Columns[0].Codes; !slices.Equal(got, want) || rows.Columns[0].Dict.Value(got[0]) != "ZZ-b" {
		t.Fatalf("materialized codes %v, want %v", got, want)
	}
}

func TestSourceDeterministic(t *testing.T) {
	mk := func() []*ingest.Batch {
		src, err := ingest.NewSource(2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		var out []*ingest.Batch
		for i := 0; i < 3; i++ {
			b, err := src.Next(50)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		ea, _ := a[i].Encode()
		eb, _ := b[i].Encode()
		if string(ea) != string(eb) {
			t.Fatalf("batch %d differs across identically-seeded sources", i)
		}
	}
}

// TestHarnessVersionedTruth drives the harness against a real engine and
// checks the versioned ground-truth contract: the truth at an old watermark
// stays frozen while the live watermark advances, and the truth at the
// newest watermark counts the ingested rows.
func TestHarnessVersionedTruth(t *testing.T) {
	db := fuzzDB(t)
	base := int64(db.NumRows())
	eng := exactdb.New()
	if err := eng.Prepare(db, engine.Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	// A fixed batch cut from the table itself: the source abstraction is
	// schema-agnostic, and the flights-shaped Source is covered elsewhere.
	src := ingest.NewFixedSource(ingest.FromTable(db.Fact, 0, 300))
	h := ingest.NewHarness(db, src, ingest.EngineSink{A: eng})

	q := &query.Query{
		VizName: "v", Table: "flights",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	truth0, err := h.TruthAt(q, base)
	if err != nil {
		t.Fatal(err)
	}

	w, err := h.Ingest(300)
	if err != nil {
		t.Fatal(err)
	}
	if w != base+300 {
		t.Fatalf("watermark %d, want %d", w, base+300)
	}
	if h.Watermark() != w || h.IngestedRows() != 300 || h.Batches() != 1 {
		t.Fatalf("harness counters: wm=%d ingested=%d batches=%d", h.Watermark(), h.IngestedRows(), h.Batches())
	}
	if eng.Watermark() != w {
		t.Fatalf("engine watermark %d, want %d", eng.Watermark(), w)
	}

	// Old version stays frozen; total count at the new version covers the
	// ingested rows.
	again, err := h.TruthAt(q, base)
	if err != nil {
		t.Fatal(err)
	}
	total := func(r *query.Result) (s float64) {
		for _, bv := range r.Bins {
			s += bv.Values[0]
		}
		return
	}
	if total(again) != total(truth0) || total(truth0) != float64(base) {
		t.Fatalf("old-version truth moved: %v then %v (want %d)", total(truth0), total(again), base)
	}
	truth1, err := h.TruthAt(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if total(truth1) != float64(base+300) {
		t.Fatalf("new-version truth counts %v rows, want %d", total(truth1), base+300)
	}

	// The engine's fresh query must agree bitwise with the new truth
	// (COUNT: integers, no fold-order slack).
	hdl, err := eng.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, hdl, 30*time.Second)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Watermark != w {
		t.Fatalf("result watermark %d, want %d", res.Watermark, w)
	}
	for k, bv := range truth1.Bins {
		gv, ok := res.Bins[k]
		if !ok || gv.Values[0] != bv.Values[0] {
			t.Fatalf("bin %v: engine %v, truth %v", k, gv, bv.Values[0])
		}
	}

	// A watermark between versions resolves to the nearest version below.
	if v := h.ViewAt(base + 5); int64(v.Fact.NumRows()) != base {
		t.Fatalf("mid-version view has %d rows, want %d", v.Fact.NumRows(), base)
	}
}
