package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// IngestScaling is one row of the live-ingestion report: the throughput and
// latency of one (driver, concurrent-user-count) group plus how it behaved
// while append-only batches landed during the replay. Record-derived fields
// come from SummarizeIngest; the ingest throughput fields describe the
// applied batch stream and are filled by the caller that owns the harness
// (records do not carry them).
type IngestScaling struct {
	UserScaling

	// Staleness distribution over delivered results, in rows behind the
	// live table at fetch time. FreshPct is the share of delivered results
	// with zero staleness — answered at the newest data version.
	StalenessMean float64
	StalenessP95  float64
	StalenessMax  float64
	FreshPct      float64

	// IngestedRows / IngestRowsPerSec describe the applied ingest stream
	// (caller-filled; zero when unknown).
	IngestedRows     int64
	IngestRowsPerSec float64
}

// SetIngested records the applied ingest stream: rows, and their rate over
// the row's own wall-clock.
func (r *IngestScaling) SetIngested(rows int64) {
	r.IngestedRows = rows
	if r.WallClockMS > 0 {
		r.IngestRowsPerSec = float64(rows) / (r.WallClockMS / 1000)
	}
}

// SummarizeIngest groups records by (driver, users) and adds the staleness
// distribution to each group's user-scaling aggregate, sorted by driver then
// user count. Records with negative staleness (nothing delivered, or a
// non-ingest run) are excluded from the staleness stats but still counted
// as queries.
func SummarizeIngest(records []driver.Record) []IngestScaling {
	groups := groupByUsers(records)
	out := make([]IngestScaling, 0, len(groups))
	for _, g := range groups {
		row := IngestScaling{UserScaling: g.scaling()}
		var stale []float64
		fresh := 0
		for _, r := range g.recs {
			if s := r.Metrics.StalenessRows; s >= 0 {
				stale = append(stale, s)
				if s == 0 {
					fresh++
				}
			}
		}
		if len(stale) > 0 {
			sort.Float64s(stale)
			var sum float64
			for _, s := range stale {
				sum += s
			}
			row.StalenessMean = sum / float64(len(stale))
			row.StalenessP95 = metrics.PercentileSorted(stale, 0.95)
			row.StalenessMax = stale[len(stale)-1]
			row.FreshPct = 100 * float64(fresh) / float64(len(stale))
		} else {
			row.StalenessMean = math.NaN()
			row.StalenessP95 = math.NaN()
			row.StalenessMax = math.NaN()
			row.FreshPct = math.NaN()
		}
		out = append(out, row)
	}
	return out
}

// RenderIngestSweep writes the live-ingestion scalability table.
func RenderIngestSweep(w io.Writer, rows []IngestScaling) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "driver\tusers\tqueries\ttr_violated%\tingested_rows\tingest_rows/s\tfresh%\tstale_mean\tstale_p95\tstale_max")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%.0f\t%s\t%s\t%s\t%s\n",
			r.Driver, r.Users, r.Queries, r.TRViolatedPct,
			r.IngestedRows, r.IngestRowsPerSec,
			fmtNaN(r.FreshPct), fmtNaN(r.StalenessMean), fmtNaN(r.StalenessP95), fmtNaN(r.StalenessMax))
	}
	return tw.Flush()
}
