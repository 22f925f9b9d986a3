package report

import (
	"bytes"
	"math"
	"testing"
	"time"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// sweepRecord fabricates one record with a fixed latency on a fixed
// timeline, so throughput and percentiles are exactly computable.
func sweepRecord(drv string, users, user int, startMS, latencyMS float64, violated bool) driver.Record {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	start := base.Add(time.Duration(startMS * float64(time.Millisecond)))
	m := metrics.QueryMetrics{HasResult: !violated, TRViolated: violated}
	return driver.Record{
		Driver: drv, Users: users, User: user,
		StartTime: start,
		EndTime:   start.Add(time.Duration(latencyMS * float64(time.Millisecond))),
		Metrics:   m,
	}
}

func TestSummarizeUsersThroughputAndPercentiles(t *testing.T) {
	var recs []driver.Record
	// 1-user group: 4 queries over exactly 2000ms of timeline.
	recs = append(recs,
		sweepRecord("prog", 1, 0, 0, 100, false),
		sweepRecord("prog", 1, 0, 500, 100, false),
		sweepRecord("prog", 1, 0, 1000, 100, false),
		sweepRecord("prog", 1, 0, 1900, 100, false),
	)
	// 2-user group: 8 queries over the same 2000ms → twice the throughput;
	// one TR violation whose latency (the TR) still counts in percentiles.
	for u := 0; u < 2; u++ {
		for i := 0; i < 4; i++ {
			violated := u == 1 && i == 3
			lat := 50.0
			if violated {
				lat = 400
			}
			recs = append(recs, sweepRecord("prog", 2, u, float64(i)*500, lat, violated))
		}
	}
	// The 2-user group must span the same wall-clock as the 1-user group.
	recs[len(recs)-1].EndTime = recs[3].EndTime

	rows := SummarizeUsers(recs)
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(rows))
	}
	one, two := rows[0], rows[1]
	if one.Users != 1 || two.Users != 2 {
		t.Fatalf("group order wrong: %+v", rows)
	}
	if one.Queries != 4 || two.Queries != 8 {
		t.Fatalf("query counts wrong: %d, %d", one.Queries, two.Queries)
	}
	if math.Abs(one.WallClockMS-2000) > 1e-9 {
		t.Errorf("1-user wall clock %v, want 2000", one.WallClockMS)
	}
	if math.Abs(one.QueriesPerSec-2) > 1e-9 {
		t.Errorf("1-user throughput %v, want 2 q/s", one.QueriesPerSec)
	}
	if math.Abs(two.QueriesPerSec-4) > 1e-9 {
		t.Errorf("2-user throughput %v, want 4 q/s", two.QueriesPerSec)
	}
	if math.Abs(two.SpeedupVs1-2) > 1e-9 {
		t.Errorf("speedup vs 1 user %v, want 2", two.SpeedupVs1)
	}
	if math.Abs(two.TRViolatedPct-12.5) > 1e-9 {
		t.Errorf("violation pct %v, want 12.5", two.TRViolatedPct)
	}
	if one.Latency.P50 != 100 {
		t.Errorf("1-user P50 %v, want 100", one.Latency.P50)
	}
	// 7×50ms + 1×400ms: the violated query's deadline latency dominates the
	// tail but not the median.
	if two.Latency.P50 != 50 {
		t.Errorf("2-user P50 %v, want 50", two.Latency.P50)
	}
	if two.Latency.P99 <= two.Latency.P50 {
		t.Errorf("tail percentile %v should exceed the median %v", two.Latency.P99, two.Latency.P50)
	}
}

// TestSummarizeUsersLegacyRecords: a record with Users == 0 — which only a
// pre-multi-user CSV could carry, and the reader now refuses those — is
// grouped as it is, not folded into the 1-user group.
func TestSummarizeUsersLegacyRecords(t *testing.T) {
	recs := []driver.Record{
		sweepRecord("x", 0, 0, 0, 10, false),
		sweepRecord("x", 1, 0, 100, 10, false),
	}
	rows := SummarizeUsers(recs)
	if len(rows) != 2 || rows[0].Users != 0 || rows[1].Users != 1 {
		t.Fatalf("records with Users == 0 were folded into another group: %+v", rows)
	}
}

// TestRenderUserSweepGolden pins the exact table the user sweep prints.
func TestRenderUserSweepGolden(t *testing.T) {
	rows := []UserScaling{
		{
			Driver: "exactdb", Users: 1, Queries: 40, TRViolatedPct: 12.5,
			WallClockMS: 812.4, QueriesPerSec: 49.2,
			Latency: metrics.LatencySummary{Count: 40, P50: 3.21, P95: 11.08, P99: 12.4},
		},
		{
			Driver: "progressive", Users: 1, Queries: 40,
			WallClockMS: 700, QueriesPerSec: 57.1,
			Latency:    metrics.LatencySummary{Count: 40, P50: 1.5, P95: 4.25, P99: 5},
			SpeedupVs1: 1,
		},
		{
			Driver: "progressive", Users: 8, Queries: 320,
			WallClockMS: 1100.5, QueriesPerSec: 290.8,
			Latency:    metrics.LatencySummary{Count: 320, P50: 2.75, P95: 9.5, P99: 14.125},
			SpeedupVs1: 5.09,
		},
		{
			Driver: "empty", Users: 2, Queries: 0,
			Latency: metrics.LatencySummary{P50: math.NaN(), P95: math.NaN(), P99: math.NaN()},
		},
	}
	var buf bytes.Buffer
	if err := RenderUserSweep(&buf, rows); err != nil {
		t.Fatal(err)
	}
	const golden = "" +
		"driver       users  queries  tr_violated%  wall_clock_ms  queries/s  p50_ms  p95_ms   p99_ms   speedup_vs_1user\n" +
		"exactdb      1      40       12.5          812.4          49.2       3.2100  11.0800  12.4000  -\n" +
		"progressive  1      40       0.0           700.0          57.1       1.5000  4.2500   5.0000   1.00x\n" +
		"progressive  8      320      0.0           1100.5         290.8      2.7500  9.5000   14.1250  5.09x\n" +
		"empty        2      0        0.0           0.0            0.0                                  -\n"
	if got := buf.String(); got != golden {
		t.Errorf("user-sweep table drifted from golden output:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
