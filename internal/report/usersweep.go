package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// UserScaling is one row of the user-scalability report: the aggregate
// throughput and latency distribution of one (driver, concurrent-user-count)
// group. It is the multi-user analogue of the paper's Fig. 5 row — instead
// of sweeping the time requirement it sweeps how many simulated analysts
// share one engine.
type UserScaling struct {
	Driver string
	Users  int

	// Queries counts executed queries; TRViolatedPct is the share cancelled
	// at the deadline.
	Queries       int
	TRViolatedPct float64

	// WallClockMS spans the group's records (first query issued → last
	// result fetched); QueriesPerSec is Queries over that span — the
	// aggregate throughput of all users together.
	WallClockMS   float64
	QueriesPerSec float64

	// Latency percentiles of the driver-observed per-query latency, in
	// milliseconds. A cancelled query's latency is the time requirement.
	Latency metrics.LatencySummary

	// SpeedupVs1 is this row's QueriesPerSec over the same driver's 1-user
	// row (0 when no 1-user row exists). >1 means concurrent users get more
	// total work done per second than a lone user — on a shared-scan engine
	// because N users' queries ride one memory sweep.
	SpeedupVs1 float64
}

// userGroup is the records of one (driver, users) group.
type userGroup struct {
	driver string
	users  int
	recs   []driver.Record
}

// groupByUsers splits records into (driver, users) groups, sorted by driver
// then user count — the one grouping pass both sweep summaries share.
func groupByUsers(records []driver.Record) []userGroup {
	type key struct {
		driver string
		users  int
	}
	index := map[key]int{}
	var groups []userGroup
	for _, r := range records {
		k := key{r.Driver, r.Users}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, userGroup{driver: r.Driver, users: r.Users})
		}
		groups[i].recs = append(groups[i].recs, r)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].driver != groups[j].driver {
			return groups[i].driver < groups[j].driver
		}
		return groups[i].users < groups[j].users
	})
	return groups
}

// scaling aggregates the group's throughput and latency distribution.
func (g userGroup) scaling() UserScaling {
	row := UserScaling{Driver: g.driver, Users: g.users, Queries: len(g.recs)}
	var first, last time.Time
	lats := make([]float64, 0, len(g.recs))
	violated := 0
	for i, r := range g.recs {
		if i == 0 || r.StartTime.Before(first) {
			first = r.StartTime
		}
		if i == 0 || r.EndTime.After(last) {
			last = r.EndTime
		}
		lats = append(lats, r.LatencyMS())
		if r.Metrics.TRViolated {
			violated++
		}
	}
	row.TRViolatedPct = 100 * float64(violated) / float64(len(g.recs))
	row.WallClockMS = float64(last.Sub(first)) / float64(time.Millisecond)
	if row.WallClockMS > 0 {
		row.QueriesPerSec = float64(row.Queries) / (row.WallClockMS / 1000)
	}
	row.Latency = metrics.SummarizeLatencies(lats)
	return row
}

// SummarizeUsers groups records by (driver, users) and aggregates each
// group's throughput and latency distribution, sorted by driver then user
// count, with SpeedupVs1 filled against each driver's 1-user group.
func SummarizeUsers(records []driver.Record) []UserScaling {
	groups := groupByUsers(records)
	out := make([]UserScaling, len(groups))
	for i, g := range groups {
		out[i] = g.scaling()
	}
	FillSpeedupVs1(out)
	return out
}

// FillSpeedupVs1 sets every row's SpeedupVs1 against the 1-user row of the
// same driver, in place; rows of a driver with no 1-user row keep 0.
func FillSpeedupVs1(rows []UserScaling) {
	base := map[string]float64{} // driver -> 1-user throughput
	for _, r := range rows {
		if r.Users == 1 {
			base[r.Driver] = r.QueriesPerSec
		}
	}
	for i := range rows {
		if b := base[rows[i].Driver]; b > 0 {
			rows[i].SpeedupVs1 = rows[i].QueriesPerSec / b
		}
	}
}

// RenderUserSweep writes the user-scalability table.
func RenderUserSweep(w io.Writer, rows []UserScaling) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "driver\tusers\tqueries\ttr_violated%\twall_clock_ms\tqueries/s\tp50_ms\tp95_ms\tp99_ms\tspeedup_vs_1user")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%s\t%s\t%s\t%s\n",
			r.Driver, r.Users, r.Queries, r.TRViolatedPct, r.WallClockMS, r.QueriesPerSec,
			fmtNaN(r.Latency.P50), fmtNaN(r.Latency.P95), fmtNaN(r.Latency.P99),
			speedupOrDash(r.SpeedupVs1))
	}
	return tw.Flush()
}

func speedupOrDash(v float64) string {
	if v == 0 || math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v)
}
