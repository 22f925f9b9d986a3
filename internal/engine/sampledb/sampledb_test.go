package sampledb

import (
	"math"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

func TestConformance(t *testing.T) {
	enginetest.Conformance(t, func() engine.Engine { return New() }, false)
}

func TestMultiUserScenario(t *testing.T) {
	enginetest.MultiUserScenario(t, func() engine.Engine { return New() }, false)
}

func TestIngestScenario(t *testing.T) {
	enginetest.IngestScenario(t, func() engine.Engine { return New() }, false)
}

func TestName(t *testing.T) {
	if New().Name() != "sampledb" {
		t.Error("name wrong")
	}
}

func TestRejectsNormalizedSchema(t *testing.T) {
	db := enginetest.NormalizedDB(100, 1)
	if err := New().Prepare(db, engine.Options{}); err == nil {
		t.Error("sampledb should reject normalized schemas (System X works on de-normalized data)")
	}
}

func TestSampleSizeMatchesRate(t *testing.T) {
	db := enginetest.SmallDB(100000, 5)
	e := New()
	e.sampleRate = 0.05
	if err := e.Prepare(db, engine.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	got := e.SampleRows()
	if math.Abs(float64(got)-5000) > 500 {
		t.Errorf("sample rows = %d, want ~5000", got)
	}
}

func TestStratificationKeepsRareGroups(t *testing.T) {
	// Build a table where one carrier has only 3 of 50000 rows; a 1%
	// uniform sample would miss it ~60% of the time, stratification never.
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "delay", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("flights", schema, 50000)
	for i := 0; i < 50000; i++ {
		if i < 3 {
			b.AppendString(0, "RARE")
		} else if i%2 == 0 {
			b.AppendString(0, "AA")
		} else {
			b.AppendString(0, "UA")
		}
		b.AppendNum(1, float64(i%100))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &dataset.Database{Fact: fact}
	e := New()
	e.sampleRate = 0.01
	if err := e.Prepare(db, engine.Options{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		VizName: "v",
		Table:   "flights",
		Bins:    []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:    []query.Aggregate{{Func: query.Count}},
	}
	h, err := e.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, h, 30*time.Second)
	dict := fact.Column("carrier").Dict
	rare, _ := dict.Lookup("RARE")
	if _, ok := res.Bins[query.BinKey{A: int64(rare)}]; !ok {
		t.Error("stratified sample lost the rare carrier")
	}
}

func TestQualityConstantAcrossPolls(t *testing.T) {
	// The sample is fixed offline: re-running the same query returns the
	// same estimate every time (paper: quality constant across TRs).
	db := enginetest.SmallDB(50000, 21)
	e := New()
	if err := e.Prepare(db, engine.Options{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	q := enginetest.CountByCarrier()
	h1, _ := e.StartQuery(q)
	r1 := enginetest.WaitResult(t, h1, 30*time.Second)
	h2, _ := e.StartQuery(q)
	r2 := enginetest.WaitResult(t, h2, 30*time.Second)
	if err := enginetest.ResultsEqual(r1, r2, 0); err != nil {
		t.Errorf("offline-sample estimates should be deterministic: %v", err)
	}
	if r1.Complete {
		t.Error("sample-based estimate must not claim to be exact")
	}
	if !r1.FiniteMargins() {
		t.Error("margins should be finite")
	}
	// Margins must be positive for a genuine sample.
	for _, bv := range r1.Bins {
		if bv.Margins[0] <= 0 {
			t.Error("count margins should be positive for sampled estimates")
		}
	}
}

func TestEstimatesScaleToPopulation(t *testing.T) {
	db := enginetest.SmallDB(80000, 25)
	e := New()
	if err := e.Prepare(db, engine.Options{Seed: 6}); err != nil {
		t.Fatal(err)
	}
	q := enginetest.CountByCarrier()
	h, _ := e.StartQuery(q)
	res := enginetest.WaitResult(t, h, 30*time.Second)
	var total float64
	for _, bv := range res.Bins {
		total += bv.Values[0]
	}
	if math.Abs(total-80000) > 0.02*80000 {
		t.Errorf("scaled total = %v, want ~80000", total)
	}
}

func TestResultWatermarkIsAbsorbedRows(t *testing.T) {
	// Regression for the watermark-semantics mismatch: SnapshotScaled used
	// to stamp the result with its scaling population, which for sampledb is
	// the represented population — numerically equal to the absorbed rows,
	// but only because Append grows both together. This pins the contract on
	// the engine.Appender axis: after live appends, a result's Watermark must
	// equal exactly what Watermark() reported for the version the query
	// captured, or min-watermark merging would let a sampled shard claim
	// freshness it doesn't have.
	const base = 40000
	db := enginetest.SmallDB(base, 11)
	e := New()
	if err := e.Prepare(db, engine.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if w := e.Watermark(); w != base {
		t.Fatalf("prepared watermark = %d, want %d", w, base)
	}
	// Absorb two batches; the represented population and the absorbed-rows
	// watermark must advance in lockstep.
	absorbed := int64(base)
	for _, n := range []int{700, 300} {
		b := ingest.FromTable(db.Fact, 0, n)
		tbl, err := ingest.Materialize(db, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Append(tbl); err != nil {
			t.Fatal(err)
		}
		absorbed += int64(n)
		if w := e.Watermark(); w != absorbed {
			t.Fatalf("watermark after append = %d, want %d", w, absorbed)
		}
	}
	h, err := e.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	res := enginetest.WaitResult(t, h, 30*time.Second)
	if res.Watermark != absorbed {
		t.Errorf("result watermark = %d, want absorbed rows %d", res.Watermark, absorbed)
	}
	if res.TotalRows != absorbed {
		t.Errorf("represented population = %d, want %d", res.TotalRows, absorbed)
	}
}

func TestUniformFallbackWithoutStrataColumn(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "x", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("flights", schema, 10000)
	for i := 0; i < 10000; i++ {
		b.AppendNum(0, float64(i))
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.sampleRate = 0.02
	if err := e.Prepare(&dataset.Database{Fact: fact}, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := e.SampleRows(); math.Abs(float64(got)-200) > 50 {
		t.Errorf("uniform fallback sample = %d, want ~200", got)
	}
}

func TestEmptyTableRejected(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{{Name: "x", Kind: dataset.Quantitative}})
	fact, err := dataset.NewBuilder("flights", schema, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := New().Prepare(&dataset.Database{Fact: fact}, engine.Options{}); err == nil {
		t.Error("empty table should be rejected")
	}
}
