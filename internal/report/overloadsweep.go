package report

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// OverloadPoint is one measured point of the open-loop overload sweep: the
// server's behavior at a fixed offered arrival rate, including the survival
// counters that show whether admission control and shedding engaged and the
// post-drain leak check.
type OverloadPoint struct {
	// Rate is the schedule's target arrival rate (queries/second);
	// OfferedRate is the rate the generator actually achieved.
	Rate        float64
	OfferedRate float64

	// Offered/Started/Completed count scheduled, issued, and finished
	// operations; Rejected the explicit server admission rejections; Dropped
	// the client-side outstanding-cap drops; Errors everything else.
	Offered   int64
	Started   int64
	Completed int64
	Rejected  int64
	Dropped   int64
	Errors    int64

	// Shed counts finals cut short by deadline-aware shedding; Violations
	// admitted queries with no usable snapshot inside the deadline.
	Shed       int64
	Violations int64

	// RejectedPct is rejections over started ops; ViolationPct violations
	// over completed (admitted) queries.
	RejectedPct  float64
	ViolationPct float64

	// Admitted-query latency tails, milliseconds. TTFS is time to first
	// usable snapshot; Done time to final.
	TTFSP50  float64
	TTFSP99  float64
	TTFSP999 float64
	DoneP50  float64
	DoneP99  float64
	DoneP999 float64

	// LeakedConsumers is the shared-scan consumer count after the point
	// fully drained — must be zero at every rate.
	LeakedConsumers int
}

// FindKnee returns the index of the first point where the server's overload
// valves visibly engaged (explicit rejections or deadline shedding), or -1
// when the whole sweep stayed under capacity. Points are assumed ordered by
// increasing offered rate.
func FindKnee(points []OverloadPoint) int {
	for i, p := range points {
		if p.Rejected > 0 || p.Shed > 0 {
			return i
		}
	}
	return -1
}

// RenderOverloadSweep writes the offered-load ladder with its latency tails
// and survival counters, marking the shedding knee.
func RenderOverloadSweep(w io.Writer, points []OverloadPoint) error {
	knee := FindKnee(points)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate/s\toffered\tdone\trejected%\tshed\tviol%\tttfs_p99\tdone_p99\tdone_p99.9\tleaked\t")
	for i, p := range points {
		mark := ""
		if i == knee {
			mark = "<- knee"
		}
		fmt.Fprintf(tw, "%.0f\t%d\t%d\t%.1f\t%d\t%.1f\t%s\t%s\t%s\t%d\t%s\n",
			p.Rate, p.Offered, p.Completed, p.RejectedPct, p.Shed, p.ViolationPct,
			fmtNaN(p.TTFSP99), fmtNaN(p.DoneP99), fmtNaN(p.DoneP999),
			p.LeakedConsumers, mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if knee < 0 {
		fmt.Fprintln(w, "no knee: the sweep never pushed the server into shedding")
	} else {
		fmt.Fprintf(w, "knee at %.0f arrivals/s: admission control and shedding engaged; past it the server answers what it admits and rejects the rest explicitly\n",
			points[knee].Rate)
	}
	return nil
}
