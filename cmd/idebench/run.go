package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/report"
	"idebench/internal/server"
	"idebench/internal/workflow"
)

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine: "+strings.Join(core.EngineNames, ", ")+", progressive-spec, systemy")
	rows := fs.Int("rows", core.SizeM, "dataset size (tuples)")
	tr := fs.Duration("tr", 12*time.Millisecond, "time requirement")
	think := fs.Duration("think", core.DefaultThinkTime, "think time between interactions")
	useJoins := fs.Bool("joins", false, "use the normalized star schema")
	count := fs.Int("count", 10, "workflows per type (generated workload)")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	flowsPath := fs.String("workflows", "", "optional workflow JSON (default: generated mixed workload)")
	detailed := fs.String("detailed", "", "optional path for the detailed per-query CSV report")
	users := fs.Int("users", 1, "concurrent simulated users (each on its own engine session)")
	seed := fs.Int64("seed", 1, "random seed")
	addr := fs.String("addr", "", "replay against a remote `idebench serve` at host:port instead of in-process (-rows/-seed must match the server); a comma-separated list enables failover through the rotation (primary first, then warm standbys)")
	maxViol := fs.Float64("maxviol", -1, "fail if the TR-violation percentage exceeds this (negative disables); CI smoke guard")
	expectStream := fs.Bool("expect-stream", false, "with -addr: fail unless at least one intermediate and one final snapshot frame arrived")
	ingestEvery := fs.Int("ingest-every", 0, "interleave an ingest event after every N workflow interactions (0 disables live ingestion)")
	ingestRows := fs.Int("ingest-rows", 1000, "rows per interleaved ingest batch (with -ingest-every)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expectStream && *addr == "" {
		return errors.New("-expect-stream requires -addr (in-process runs have no frames)")
	}
	if *ingestEvery > 0 && *useJoins {
		return errors.New("-ingest-every with -joins is not supported (the generated ingest stream is de-normalized)")
	}

	db, err := core.BuildData(*rows, *useJoins, *seed)
	if err != nil {
		return err
	}
	var flows []*workflow.Workflow
	if *flowsPath != "" {
		flows, err = workflow.LoadFile(*flowsPath)
		if err != nil {
			return err
		}
	} else {
		flatDB := db
		if *useJoins {
			flatDB, err = core.BuildData(*rows, false, *seed)
			if err != nil {
				return err
			}
		}
		all, gerr := core.GenerateWorkflows(flatDB, *count, *interactions, *seed+100)
		if gerr != nil {
			return gerr
		}
		flows = core.MixedOnly(all)
	}

	s := core.DefaultSettings()
	s.TimeRequirement = *tr
	s.ThinkTime = *think
	s.DataSize = *rows
	s.UseJoins = *useJoins
	s.Seed = *seed

	if *users > len(flows) {
		fmt.Fprintf(os.Stderr, "idebench: note: %d users requested but only %d workflows; running %d concurrent users (add -count or -workflows for more)\n",
			*users, len(flows), len(flows))
	}
	if *ingestEvery > 0 {
		flows = workflow.InterleaveIngestAll(flows, *ingestEvery, *ingestRows)
	}
	var p *core.Prepared
	var rem *server.Remote
	if *addr != "" {
		// The driver code path is identical to the in-process one; only the
		// engine.Engine implementation behind it differs.
		if rem, err = dialRotation(*addr); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		defer rem.Close()
		// Surfaces a -rows/-seed mismatch before an expensive replay runs
		// against the wrong ground truth.
		if err := rem.Prepare(db, engine.Options{Confidence: s.Confidence, Seed: s.Seed}); err != nil {
			return err
		}
		fmt.Printf("remote engine: %s at %s (%d rows)\n", rem.Name(), *addr, rem.Rows())
		p = &core.Prepared{Engine: rem, DB: db, GT: groundtruth.New(db)}
	} else {
		if p, err = core.Prepare(*engineName, db, s); err != nil {
			return err
		}
		fmt.Printf("data preparation time: %v\n", p.PrepTime.Round(time.Microsecond))
	}
	var recs []driver.Record
	var harness *ingest.Harness
	switch {
	case *ingestEvery > 0:
		// Remotely, the client owns the ground-truth lineage (the harness
		// applies every batch locally) while the same batches ship to the
		// server as ingest frames.
		var sink ingest.Sink
		if rem != nil {
			sink = rem
		} else if app := engine.CapabilitiesOf(p.Engine).Appender; app != nil {
			sink = ingest.EngineSink{A: app}
		} else {
			return fmt.Errorf("engine %s does not support live ingestion", p.Engine.Name())
		}
		harness, err = newIngestHarness(db, s.Seed, sink)
		if err != nil {
			return err
		}
		recs, err = p.RunUsers(flows, s, *users, harness)
	case *users > 1:
		// nil, not harness: a nil *ingest.Harness inside the
		// interface would not compare equal to nil.
		recs, err = p.RunUsers(flows, s, *users, nil)
	default:
		recs, err = p.Run(flows, s)
	}
	if err != nil {
		return err
	}
	if rem != nil {
		if harness != nil {
			if err := awaitIngest(rem, harness); err != nil {
				return err
			}
		}
		st := rem.Stats()
		fmt.Printf("network frames: %d intermediate, %d final, %d ingest, %d errors over %d sessions\n",
			st.Intermediate.Load(), st.Final.Load(), st.Ingest.Load(), st.Errors.Load(), st.Sessions.Load())
	}
	rows2 := report.Summarize(recs, report.GroupBy{Driver: true, TimeReq: true, WorkflowType: true})
	if err := report.RenderSummaries(os.Stdout, rows2); err != nil {
		return err
	}
	if *users > 1 {
		fmt.Println()
		if err := report.RenderUserSweep(os.Stdout, report.SummarizeUsers(recs)); err != nil {
			return err
		}
	}
	if harness != nil {
		fmt.Println()
		ingRows := report.SummarizeIngest(recs)
		for i := range ingRows {
			ingRows[i].SetIngested(harness.IngestedRows())
		}
		if err := report.RenderIngestSweep(os.Stdout, ingRows); err != nil {
			return err
		}
		fmt.Printf("ingested %d rows in %d batches (live watermark %d)\n",
			harness.IngestedRows(), harness.Batches(), harness.Watermark())
	}
	if *detailed != "" {
		if err := writeDetailed(*detailed, recs); err != nil {
			return err
		}
		fmt.Printf("detailed report: %s (%d queries)\n", *detailed, len(recs))
	}
	if *expectStream {
		if err := checkStream(rem.Stats()); err != nil {
			return err
		}
	}
	if *maxViol >= 0 {
		if err := checkViolations(recs, *maxViol); err != nil {
			return err
		}
	}
	return nil
}

// awaitIngest waits (bounded) until the server confirms it absorbed every
// batch the harness fed it: ingest frames are asynchronous. A server-side
// rejection surfaces with its own message rather than as a timeout.
func awaitIngest(rem *server.Remote, h *ingest.Harness) error {
	deadline := time.Now().Add(15 * time.Second)
	for rem.Watermark() < h.Watermark() && time.Now().Before(deadline) {
		if err := rem.Err(); err != nil {
			return fmt.Errorf("server rejected ingestion: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := rem.Err(); err != nil {
		return fmt.Errorf("server rejected ingestion: %w", err)
	}
	if rem.Watermark() != h.Watermark() {
		return fmt.Errorf("server watermark %d never caught up to fed %d",
			rem.Watermark(), h.Watermark())
	}
	return nil
}

// newIngestHarness builds the deterministic batch stream + harness shared
// by the in-process and remote ingest paths.
func newIngestHarness(db *dataset.Database, seed int64, sinks ...ingest.Sink) (*ingest.Harness, error) {
	src, err := ingest.NewSource(2000, seed+23)
	if err != nil {
		return nil, err
	}
	return ingest.NewHarness(db, src, sinks...), nil
}

// checkStream enforces the e2e smoke contract: a streamed replay must have
// delivered at least one intermediate and one final snapshot frame.
func checkStream(st *server.FrameStats) error {
	if st.Intermediate.Load() == 0 || st.Final.Load() == 0 {
		return fmt.Errorf("stream check failed: %d intermediate / %d final frames (want ≥1 of each)",
			st.Intermediate.Load(), st.Final.Load())
	}
	return nil
}

// checkViolations enforces a TR-violation ceiling (percent) over the run.
func checkViolations(recs []driver.Record, maxPct float64) error {
	violated := 0
	for _, r := range recs {
		if r.Metrics.TRViolated {
			violated++
		}
	}
	pct := 0.0
	if len(recs) > 0 {
		pct = 100 * float64(violated) / float64(len(recs))
	}
	fmt.Printf("tr violations: %d/%d (%.2f%%), ceiling %.2f%%\n", violated, len(recs), pct, maxPct)
	if pct > maxPct {
		return fmt.Errorf("violation rate %.2f%% exceeds -maxviol %.2f%%", pct, maxPct)
	}
	return nil
}

func writeDetailed(path string, recs []driver.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteDetailedCSV(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	path := fs.String("detailed", "detailed.csv", "detailed report CSV to analyze")
	byType := fs.Bool("by-type", false, "group the summary by workflow type instead of time requirement")
	effects := fs.Bool("effects", true, "also print the Exp.-4 factor analysis")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	recs, err := report.ReadDetailedCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	g := report.GroupBy{Driver: true, TimeReq: true, DataSize: true}
	if *byType {
		g = report.GroupBy{Driver: true, WorkflowType: true, DataSize: true}
	}
	rows := report.Summarize(recs, g)
	if err := report.RenderSummaries(os.Stdout, rows); err != nil {
		return err
	}
	if *effects {
		fmt.Println()
		if err := report.RenderEffects(os.Stdout, report.Analyze(recs)); err != nil {
			return err
		}
	}
	return nil
}
