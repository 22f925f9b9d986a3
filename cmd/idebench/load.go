package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"idebench/internal/core"
	"idebench/internal/loadgen"
	"idebench/internal/server"
)

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "server address to load")
	workload := fs.String("workload", "uniform", "workload: "+strings.Join(loadgen.Names(), ", "))
	schedule := fs.String("schedule", "poisson", "arrival schedule: poisson, bursty, ramp")
	rate := fs.Float64("rate", 100, "arrivals/second (poisson rate, bursty base rate, ramp start rate)")
	rate2 := fs.Float64("rate2", 0, "second rate: bursty burst rate / ramp end rate (default 10x -rate)")
	period := fs.Duration("period", time.Second, "bursty: burst cadence")
	burstLen := fs.Duration("burst-len", 200*time.Millisecond, "bursty: burst duration")
	over := fs.Duration("over", 0, "ramp: sweep duration from -rate to -rate2 (default -duration)")
	duration := fs.Duration("duration", 5*time.Second, "offered-load window")
	sessions := fs.Int("sessions", 8, "connection/session pool size")
	deadline := fs.Duration("deadline", 12*time.Millisecond, "per-query interactivity deadline (sent as the server's shedding hint)")
	outstanding := fs.Int("outstanding", 4096, "client-side cap on outstanding operations")
	reconnect := fs.Bool("reconnect", false, "transparently redial dropped connections with backoff")
	rows := fs.Int("rows", core.SizeM, "dataset size the server was prepared with (for op synthesis)")
	seed := fs.Int64("seed", 1, "dataset seed the server was prepared with")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rate2 <= 0 {
		*rate2 = 10 * *rate
	}
	var sched loadgen.Schedule
	switch *schedule {
	case "poisson":
		sched = loadgen.Poisson{Rate: *rate}
	case "bursty":
		sched = loadgen.Bursty{BaseRate: *rate, BurstRate: *rate2, Period: *period, BurstLen: *burstLen}
	case "ramp":
		rampOver := *over
		if rampOver <= 0 {
			rampOver = *duration
		}
		sched = loadgen.Ramp{From: *rate, To: *rate2, Over: rampOver}
	default:
		return fmt.Errorf("unknown schedule %q (want poisson, bursty or ramp)", *schedule)
	}

	// The generator synthesizes ops against the same deterministic dataset
	// the server prepared; only the column metadata is used, so build the
	// flat schema locally and never ship a byte of it.
	db, err := core.BuildData(*rows, false, *seed)
	if err != nil {
		return err
	}
	wl, err := loadgen.New(*workload, db, *seed)
	if err != nil {
		return err
	}
	rem, err := server.NewRemoteWithOptions(*addr, server.RemoteOptions{Reconnect: *reconnect})
	if err != nil {
		return err
	}
	defer rem.Close()

	fmt.Printf("open-loop %s/%s against %s: %v window, %d sessions, %v deadline\n",
		*workload, sched.Name(), *addr, *duration, *sessions, *deadline)
	st, err := loadgen.Run(rem, wl, sched, loadgen.Config{
		Sessions:       *sessions,
		Duration:       *duration,
		Deadline:       *deadline,
		MaxOutstanding: *outstanding,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("offered   %d (%.0f/s achieved)\n", st.Offered, st.OfferedRate)
	fmt.Printf("completed %d (%.0f/s), rejected %d (%.1f%%), dropped %d, errors %d\n",
		st.Completed, st.CompletedRate, st.Rejected, st.RejectedPct(), st.Dropped, st.Errors)
	fmt.Printf("shed %d, deadline violations %d (%.1f%% of admitted), ingest ops %d\n",
		st.Shed, st.Violations, st.ViolationPct(), st.IngestOps)
	fmt.Printf("ttfs p50/p99/p99.9  %.2f / %.2f / %.2f ms\n", st.TTFS.P50, st.TTFS.P99, st.TTFS.P999)
	fmt.Printf("done p50/p99/p99.9  %.2f / %.2f / %.2f ms\n", st.Done.P50, st.Done.P99, st.Done.P999)
	fmt.Printf("elapsed %v\n", st.Elapsed.Round(time.Millisecond))
	return nil
}
