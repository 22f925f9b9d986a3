package report

import (
	"bytes"
	"math"
	"testing"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// ingestRecord fabricates one record with a given staleness (negative =
// undefined, the non-ingest sentinel).
func ingestRecord(drv string, users int, staleness float64, violated bool) driver.Record {
	m := metrics.QueryMetrics{HasResult: !violated, TRViolated: violated, StalenessRows: staleness}
	return driver.Record{Driver: drv, Users: users, Metrics: m}
}

func TestSummarizeIngestStaleness(t *testing.T) {
	recs := []driver.Record{
		ingestRecord("prog", 2, 0, false),
		ingestRecord("prog", 2, 0, false),
		ingestRecord("prog", 2, 100, false),
		ingestRecord("prog", 2, 300, false),
		ingestRecord("prog", 2, -1, true), // violated: no staleness sample
		ingestRecord("exact", 2, 500, false),
	}
	rows := SummarizeIngest(recs)
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	// Sorted by driver: exact first.
	e, p := rows[0], rows[1]
	if e.Driver != "exact" || p.Driver != "prog" {
		t.Fatalf("group order: %s, %s", e.Driver, p.Driver)
	}
	if p.Queries != 5 || p.TRViolatedPct != 20 {
		t.Errorf("prog queries=%d violated=%v", p.Queries, p.TRViolatedPct)
	}
	if p.StalenessMean != 100 { // (0+0+100+300)/4
		t.Errorf("mean staleness = %v, want 100", p.StalenessMean)
	}
	// P95 uses the same interpolated definition as the latency columns
	// (metrics.Percentile): rank 0.95*(4-1)=2.85 → 100 + 0.85*(300-100).
	if p.StalenessMax != 300 || math.Abs(p.StalenessP95-270) > 1e-9 {
		t.Errorf("staleness p95=%v max=%v, want 270/300", p.StalenessP95, p.StalenessMax)
	}
	if p.FreshPct != 50 {
		t.Errorf("fresh%% = %v, want 50", p.FreshPct)
	}
}

func TestSummarizeIngestNoSamples(t *testing.T) {
	rows := SummarizeIngest([]driver.Record{ingestRecord("x", 1, -1, false)})
	if len(rows) != 1 {
		t.Fatalf("groups = %d", len(rows))
	}
	if !math.IsNaN(rows[0].StalenessMean) || !math.IsNaN(rows[0].FreshPct) {
		t.Errorf("staleness stats over no samples should be NaN: %+v", rows[0])
	}
}

// TestRenderIngestSweepGolden pins the ingest sweep report table format.
func TestRenderIngestSweepGolden(t *testing.T) {
	rows := []IngestScaling{
		{UserScaling: UserScaling{Driver: "exactdb", Users: 1, Queries: 40, TRViolatedPct: 2.5},
			StalenessMean: 120.25, StalenessP95: 400, StalenessMax: 500, FreshPct: 25,
			IngestedRows: 8000, IngestRowsPerSec: 16000},
		{UserScaling: UserScaling{Driver: "progressive", Users: 8, Queries: 320, TRViolatedPct: 0},
			StalenessMean: 0, StalenessP95: 0, StalenessMax: 0, FreshPct: 100,
			IngestedRows: 64000, IngestRowsPerSec: 128000},
		{UserScaling: UserScaling{Driver: "progressive", Users: 2, Queries: 80, TRViolatedPct: 0},
			StalenessMean: math.NaN(), StalenessP95: math.NaN(), StalenessMax: math.NaN(),
			FreshPct: math.NaN()},
	}
	var buf bytes.Buffer
	if err := RenderIngestSweep(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden := "" +
		"driver       users  queries  tr_violated%  ingested_rows  ingest_rows/s  fresh%    stale_mean  stale_p95  stale_max\n" +
		"exactdb      1      40       2.5           8000           16000          25.0000   120.2500    400.0000   500.0000\n" +
		"progressive  8      320      0.0           64000          128000         100.0000  0.0000      0.0000     0.0000\n" +
		"progressive  2      80       0.0           0              0                                               \n"
	if got := buf.String(); got != golden {
		t.Errorf("ingest sweep table drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
