package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"idebench/internal/core"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/loadgen"
	"idebench/internal/report"
	"idebench/internal/server"
)

// OverloadDeadline is the per-query interactivity deadline of the overload
// sweep — queries with no snapshot inside it count as violated, and the
// server sheds admitted queries still running past its late budget.
const OverloadDeadline = 12 * time.Millisecond

// DefaultOverloadRates is the offered-load ladder (arrivals/second). The
// upper rungs are far past what the tightened admission caps below admit, so
// the sweep always walks through the knee.
var DefaultOverloadRates = []float64{100, 250, 500, 1000, 2000, 4000}

// maxDoneP99PastKnee is the overload gate's ceiling on admitted-query
// time-to-final p99 at and past the shedding knee, milliseconds. Deadline
// shedding cancels admitted queries a couple of deadlines after admission,
// so even at 30x the capacity rate the tail must stay far under the load
// generator's 2s hard timeout.
const maxDoneP99PastKnee = 1500.0

// OverloadSweep measures open-loop overload survival — `idebench exp -name
// overload`. It serves a progressive engine on a real loopback listener
// with deliberately tight admission caps
// (the knee must appear inside the ladder, not at data-center scale), then
// walks DefaultOverloadRates with a Poisson open-loop generator. At every
// rate it reports the admitted-query latency tails (p50/p99/p99.9 of TTFS
// and time-to-final), the explicit-rejection and shedding counts, and the
// post-drain shared-scan consumer count: overload may cost rejections, never
// leaks or unbounded tails. The sweep prints its table and then fails unless
// the shedding knee appears inside the ladder, the admitted-query p99 stays
// bounded past it, and no rate saw a hard error, leaked a consumer or left
// a query in flight after its drain.
func OverloadSweep(cfg Config) ([]report.OverloadPoint, error) {
	return OverloadSweepRates(cfg, DefaultOverloadRates, 2*time.Second)
}

// OverloadSweepRates is OverloadSweep with an explicit rate ladder and
// per-point offered-load window.
func OverloadSweepRates(cfg Config, rates []float64, window time.Duration) ([]report.OverloadPoint, error) {
	cfg = cfg.withDefaults()
	if len(rates) == 0 {
		return nil, fmt.Errorf("experiments: empty overload rate ladder")
	}

	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p, err := core.Prepare("progressive", db, engineSettings(cfg, cfg.Rows))
	if err != nil {
		return nil, err
	}
	scanObs, _ := p.Engine.(engine.ScanObserver)

	// Tight caps force the knee inside the ladder: a shallow admission queue
	// and a short late budget mean the upper rungs must be survived by
	// rejecting and shedding, not by buffering.
	opts := server.Options{
		Rows:               int64(db.Fact.NumRows()),
		Seed:               cfg.Seed,
		MaxConns:           64,
		MaxInflight:        16,
		MaxInflightPerConn: 8,
		PollInterval:       time.Millisecond,
	}
	if app, ok := p.Engine.(engine.Appender); ok {
		opts.Apply = ingest.NewApplier(db, app).Apply
	}
	srv := server.New(p.Engine, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: srv}
	serveDone := make(chan struct{})
	go func() { hsrv.Serve(l); close(serveDone) }()
	defer func() { hsrv.Close(); <-serveDone }()
	addr := l.Addr().String()

	var points []report.OverloadPoint
	var leakedInflight []int64
	for i, rate := range rates {
		// Fresh client per point: session state, handle maps, and frame
		// stats start clean at every rung.
		rem, err := server.NewRemote(addr)
		if err != nil {
			return nil, fmt.Errorf("experiments: overload dial at %.0f/s: %w", rate, err)
		}
		wl, err := loadgen.New("uniform", db, cfg.Seed+int64(i))
		if err != nil {
			rem.Close()
			return nil, err
		}
		st, err := loadgen.Run(rem, wl, loadgen.Poisson{Rate: rate}, loadgen.Config{
			Sessions: 8,
			Duration: window,
			Deadline: OverloadDeadline,
			Seed:     cfg.Seed + int64(100+i),
		})
		rem.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: overload at %.0f/s: %w", rate, err)
		}

		// The leak gate: after the point's clients are gone, the shared scan
		// must drain to zero consumers, and /healthz to zero queries in
		// flight, before the next rung starts.
		deadline := time.Now().Add(10 * time.Second)
		leaked := 0
		if scanObs != nil {
			for scanObs.ActiveScanConsumers() > 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			leaked = scanObs.ActiveScanConsumers()
		}
		inflight, err := inflightAfterDrain(addr, deadline)
		if err != nil {
			return nil, fmt.Errorf("experiments: overload at %.0f/s: %w", rate, err)
		}
		leakedInflight = append(leakedInflight, inflight)

		points = append(points, report.OverloadPoint{
			Rate:            rate,
			OfferedRate:     st.OfferedRate,
			Offered:         st.Offered,
			Started:         st.Started,
			Completed:       st.Completed,
			Rejected:        st.Rejected,
			Dropped:         st.Dropped,
			Errors:          st.Errors,
			Shed:            st.Shed,
			Violations:      st.Violations,
			RejectedPct:     st.RejectedPct(),
			ViolationPct:    st.ViolationPct(),
			TTFSP50:         st.TTFS.P50,
			TTFSP99:         st.TTFS.P99,
			TTFSP999:        st.TTFS.P999,
			DoneP50:         st.Done.P50,
			DoneP99:         st.Done.P99,
			DoneP999:        st.Done.P999,
			LeakedConsumers: leaked,
		})
	}

	fmt.Fprintln(cfg.Out, "=== Overload survival: open-loop Poisson arrivals vs tightened admission caps ===")
	if err := report.RenderOverloadSweep(cfg.Out, points); err != nil {
		return nil, err
	}
	return points, overloadGate(points, leakedInflight)
}

// inflightAfterDrain polls the server's /healthz until it reports no query
// in flight or the deadline passes, and returns the last count it read.
func inflightAfterDrain(addr string, deadline time.Time) (int64, error) {
	client := &http.Client{Timeout: server.PingTimeout}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err != nil {
			return 0, err
		}
		var h server.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("decode /healthz: %w", err)
		}
		if h.Inflight == 0 || time.Now().After(deadline) {
			return h.Inflight, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// overloadGate returns the failed overload-survival checks as one error, nil
// when every check holds. inflight[i] is the server's in-flight query count
// after points[i] drained.
func overloadGate(points []report.OverloadPoint, inflight []int64) error {
	var failures []error
	knee := report.FindKnee(points)
	if knee < 0 {
		failures = append(failures, errors.New("no shedding knee inside the rate ladder: overload valves never engaged"))
		knee = len(points)
	}
	for i, p := range points {
		if p.LeakedConsumers != 0 {
			failures = append(failures, fmt.Errorf("rate %.0f/s leaked %d scan consumers after drain", p.Rate, p.LeakedConsumers))
		}
		if inflight[i] != 0 {
			failures = append(failures, fmt.Errorf("rate %.0f/s left %d queries in flight after drain", p.Rate, inflight[i]))
		}
		if p.Errors > 0 {
			failures = append(failures, fmt.Errorf("rate %.0f/s saw %d hard errors (overload must reject explicitly, not error)", p.Rate, p.Errors))
		}
		if i >= knee && p.Completed > 0 && p.DoneP99 > maxDoneP99PastKnee {
			failures = append(failures, fmt.Errorf("rate %.0f/s admitted done-p99 %.1fms exceeds %.0fms: shedding is not bounding the tail", p.Rate, p.DoneP99, maxDoneP99PastKnee))
		}
	}
	if len(failures) == 0 {
		return nil
	}
	return fmt.Errorf("experiments: overload gate: %w", errors.Join(failures...))
}
