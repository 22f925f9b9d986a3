// Package driver implements the benchmark driver (paper Sec. 4.4): it
// replays workflows against a system adapter, maintains the visualization
// graph, issues the concurrent queries each interaction triggers, enforces
// the time requirement (cancelling overdue queries), sleeps the think time
// between interactions, and evaluates every query against ground truth.
//
// Two replay shapes exist. Runner is one simulated analyst on one
// engine.Session — the paper's single-user driver. MultiRunner (multi.go)
// replays K workflows as K concurrent simulated users against one prepared
// engine, each on its own session, which is how the benchmark exercises
// multi-user scaling (shared scans amortizing across users). All waiting
// goes through the Clock abstraction so tests replace real sleeps with
// simulated time.
package driver

import (
	"fmt"
	"time"

	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/metrics"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// Config carries the benchmark settings of one run (paper Sec. 4.6).
type Config struct {
	// TimeRequirement is the per-query deadline; queries without a
	// fetchable result at the deadline are cancelled and counted as
	// violations.
	TimeRequirement time.Duration
	// ThinkTime separates consecutive interactions.
	ThinkTime time.Duration
	// DataSizeLabel annotates report rows (e.g. "500k").
	DataSizeLabel string
	// PrecomputeGroundTruth evaluates all ground truths in a replay prepass
	// so reference scans do not compete with the engine for CPU during the
	// timed run. Default true (set by Normalize).
	PrecomputeGroundTruth *bool
	// Clock supplies time; nil means WallClock. Tests inject a SimClock so
	// think times and deadline waits run in simulated time.
	Clock Clock
	// IngestSink handles ingest interactions (nil: workflows containing
	// them fail). With a sink installed the replay is ingest-aware: every
	// delivered result is evaluated against the ground truth of the data
	// version its watermark names, and its staleness (live watermark minus
	// result watermark) is recorded. The ground-truth precompute prepass is
	// skipped — references are version-dependent and resolved at fetch time.
	IngestSink IngestSink
}

// IngestSink is the driver's window into a live-ingestion timeline
// (implemented by ingest.Harness). Ingest applies one event and returns the
// new live watermark; Watermark reads it; TruthAt resolves the exact
// reference for q at the data version a result's watermark names.
type IngestSink interface {
	Ingest(rows int) (watermark int64, err error)
	Watermark() int64
	TruthAt(q *query.Query, watermark int64) (*query.Result, error)
}

func (c Config) precompute() bool {
	return c.PrecomputeGroundTruth == nil || *c.PrecomputeGroundTruth
}

func (c Config) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return WallClock{}
}

// Record is one row of the detailed report (paper Table 1).
type Record struct {
	ID            int           `json:"id"`
	InteractionID int           `json:"interaction_id"`
	VizName       string        `json:"viz_name"`
	Driver        string        `json:"driver"`
	DataSize      string        `json:"data_size"`
	ThinkTimeMS   float64       `json:"think_time_ms"`
	TimeReqMS     float64       `json:"time_req_ms"`
	Workflow      string        `json:"workflow"`
	WorkflowType  workflow.Type `json:"workflow_type"`
	// User identifies the simulated user that issued the query (0 for
	// single-user replays); Users is the concurrent-user count of the run
	// (1 for single-user replays), the grouping axis of the user-scaling
	// report.
	User  int `json:"user"`
	Users int `json:"users"`

	StartTime    time.Time            `json:"start_time"`
	EndTime      time.Time            `json:"end_time"`
	BinDims      int                  `json:"bin_dims"`
	BinningType  string               `json:"binning_type"`
	AggType      string               `json:"agg_type"`
	ConcurrentQs int                  `json:"concurrent_queries"`
	SQL          string               `json:"sql"`
	Metrics      metrics.QueryMetrics `json:"metrics"`
}

// LatencyMS is the query's driver-observed latency in milliseconds: the
// time from issue until its result was fetched (the TR for cancelled
// queries).
func (r Record) LatencyMS() float64 {
	return float64(r.EndTime.Sub(r.StartTime)) / float64(time.Millisecond)
}

// Runner replays workflows as one simulated analyst on one engine session.
type Runner struct {
	name   string
	sess   engine.Session
	gt     *groundtruth.Cache
	cfg    Config
	clock  Clock
	nextID int

	// deferred queues the ground-truth evaluations of an ingest-aware
	// replay, one entry per record in order. Versioned references cannot be
	// pre-warmed (versions are minted at replay time), so instead of
	// scanning reference tables inline between timed queries — competing
	// with the engine for CPU exactly like the prepass PR 3 eliminated —
	// the runner captures (query, result, live watermark) at fetch time and
	// resolves the metrics after the replay. RunWorkflow resolves its own
	// records; MultiRunner defers until every user finished and the wall
	// clock is closed.
	deferred     []deferredEval
	deferResolve bool

	// Multi-user annotations, set by MultiRunner.
	user  int
	users int
	// thinkFor returns the think time before interaction idx+1; nil means
	// the constant cfg.ThinkTime. MultiRunner installs per-user jitter.
	thinkFor func(idx int) time.Duration
}

// deferredEval is one postponed ground-truth evaluation.
type deferredEval struct {
	q    *query.Query
	res  *query.Result // nil: nothing fetchable at the deadline
	live int64         // sink watermark at fetch time
}

// New builds a runner on a fresh session of eng that is never closed: fine
// for a one-off replay, while a caller replaying repeatedly on one engine
// opens and closes its sessions itself and uses NewOnSession. The engine
// must already be prepared for the same database the ground-truth cache is
// bound to.
func New(eng engine.Engine, gt *groundtruth.Cache, cfg Config) *Runner {
	return NewOnSession(eng.Name(), eng.OpenSession(), gt, cfg)
}

// NewOnSession builds a runner on an explicit session; name labels records
// (normally the engine name). MultiRunner opens one session per user and
// builds its runners this way.
func NewOnSession(name string, sess engine.Session, gt *groundtruth.Cache, cfg Config) *Runner {
	return &Runner{name: name, sess: sess, gt: gt, cfg: cfg, clock: cfg.clock(), users: 1}
}

// RunWorkflow replays one workflow and returns a record per executed query.
func (r *Runner) RunWorkflow(w *workflow.Workflow) ([]Record, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if r.cfg.precompute() && r.cfg.IngestSink == nil {
		if err := r.warmGroundTruth(w); err != nil {
			return nil, err
		}
	}

	graph := workflow.NewGraph()
	r.sess.WorkflowStart()
	defer r.sess.WorkflowEnd()

	var records []Record
	for idx, in := range w.Interactions {
		eff, err := graph.Apply(in)
		if err != nil {
			return nil, fmt.Errorf("driver: workflow %s interaction %d: %w", w.Name, idx, err)
		}
		if eff.NewLink != nil {
			r.sess.LinkVizs(eff.NewLink[0], eff.NewLink[1])
		}
		if eff.Discarded != "" {
			r.sess.DeleteViz(eff.Discarded)
		}
		if eff.IngestRows > 0 {
			if r.cfg.IngestSink == nil {
				return nil, fmt.Errorf("driver: workflow %s interaction %d: ingest event without an ingest sink", w.Name, idx)
			}
			if _, err := r.cfg.IngestSink.Ingest(eff.IngestRows); err != nil {
				return nil, fmt.Errorf("driver: workflow %s interaction %d: %w", w.Name, idx, err)
			}
		}

		recs, err := r.runQueries(w, idx, eff.Queries)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)

		if idx < len(w.Interactions)-1 {
			if think := r.think(idx); think > 0 {
				r.clock.Sleep(think)
			}
		}
	}
	if !r.deferResolve {
		if err := r.resolveDeferred(records); err != nil {
			return nil, err
		}
	}
	return records, nil
}

// resolveDeferred computes the postponed ground-truth evaluations of an
// ingest-aware replay for recs, which must be exactly the records the
// deferred queue was built for, in order. The queue is cleared. This runs
// after the timed replay (MultiRunner calls it once the wall clock is
// closed), so O(table) reference scans never compete with engine scans
// racing their deadlines.
func (r *Runner) resolveDeferred(recs []Record) error {
	sink := r.cfg.IngestSink
	if sink == nil {
		return nil
	}
	if len(r.deferred) != len(recs) {
		return fmt.Errorf("driver: %d deferred evaluations for %d records", len(r.deferred), len(recs))
	}
	for i, d := range r.deferred {
		// Evaluate against the truth of the data version the result claims
		// (its watermark); staleness is how far the live table had moved
		// past that version when the result was fetched.
		w := d.live
		if d.res != nil && d.res.Watermark > 0 {
			w = d.res.Watermark
		}
		gt, err := sink.TruthAt(d.q, w)
		if err != nil {
			return fmt.Errorf("driver: ground truth for %s: %w", d.q.VizName, err)
		}
		if d.res == nil {
			recs[i].Metrics = metrics.Violated(gt)
			continue
		}
		m := metrics.Evaluate(d.res, gt, false)
		if s := float64(d.live - w); s > 0 {
			m.StalenessRows = s
		} else {
			m.StalenessRows = 0
		}
		recs[i].Metrics = m
	}
	r.deferred = r.deferred[:0]
	return nil
}

// think returns the think time after interaction idx.
func (r *Runner) think(idx int) time.Duration {
	if r.thinkFor != nil {
		return r.thinkFor(idx)
	}
	return r.cfg.ThinkTime
}

// warmGroundTruth dry-replays the workflow, computing every query's exact
// reference before the timed run.
func (r *Runner) warmGroundTruth(w *workflow.Workflow) error {
	graph := workflow.NewGraph()
	for idx, in := range w.Interactions {
		eff, err := graph.Apply(in)
		if err != nil {
			return fmt.Errorf("driver: workflow %s interaction %d: %w", w.Name, idx, err)
		}
		for _, q := range eff.Queries {
			if _, err := r.gt.Get(q); err != nil {
				return fmt.Errorf("driver: ground truth for %s: %w", q.VizName, err)
			}
		}
	}
	return nil
}

// runQueries launches all queries of one interaction simultaneously,
// enforces the TR, and evaluates each result.
func (r *Runner) runQueries(w *workflow.Workflow, interactionID int, qs []*query.Query) ([]Record, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	type running struct {
		q     *query.Query
		h     engine.Handle
		start time.Time
		err   error
	}
	rs := make([]running, len(qs))
	for i, q := range qs {
		rs[i].q = q
		rs[i].start = r.clock.Now()
		h, err := r.sess.StartQuery(q)
		if err != nil {
			rs[i].err = err
			continue
		}
		rs[i].h = h
	}
	deadline := r.clock.Now().Add(r.cfg.TimeRequirement)

	records := make([]Record, 0, len(qs))
	for i := range rs {
		ru := &rs[i]
		if ru.err != nil {
			return nil, fmt.Errorf("driver: start query for %s: %w", ru.q.VizName, ru.err)
		}
		// Wait until the query finishes or the shared deadline passes.
		var res *query.Result
		t := r.clock.NewTimer(deadline.Sub(r.clock.Now()))
		select {
		case <-ru.h.Done():
		case <-t.C():
		}
		t.Stop()
		res = ru.h.Snapshot()
		ru.h.Cancel()
		end := r.clock.Now()

		var m metrics.QueryMetrics
		if sink := r.cfg.IngestSink; sink != nil {
			// Version-aware evaluation is postponed (see Runner.deferred):
			// capture what fetch time alone can know and leave the metrics
			// to resolveDeferred, so reference scans never run inside the
			// timed window.
			r.deferred = append(r.deferred, deferredEval{q: ru.q, res: res, live: sink.Watermark()})
		} else {
			gt, err := r.gt.Get(ru.q)
			if err != nil {
				return nil, fmt.Errorf("driver: ground truth for %s: %w", ru.q.VizName, err)
			}
			if res == nil {
				m = metrics.Violated(gt)
			} else {
				m = metrics.Evaluate(res, gt, false)
			}
		}

		r.nextID++
		records = append(records, Record{
			ID:            r.nextID - 1,
			InteractionID: interactionID,
			VizName:       ru.q.VizName,
			Driver:        r.name,
			DataSize:      r.cfg.DataSizeLabel,
			ThinkTimeMS:   float64(r.cfg.ThinkTime) / float64(time.Millisecond),
			TimeReqMS:     float64(r.cfg.TimeRequirement) / float64(time.Millisecond),
			Workflow:      w.Name,
			WorkflowType:  w.Type,
			User:          r.user,
			Users:         r.users,
			StartTime:     ru.start,
			EndTime:       end,
			BinDims:       ru.q.BinDims(),
			BinningType:   ru.q.BinningType(),
			AggType:       ru.q.AggType(),
			ConcurrentQs:  len(qs),
			SQL:           ru.q.ToSQL(),
			Metrics:       m,
		})
	}
	return records, nil
}

// RunWorkflows replays several workflows sequentially, concatenating
// records.
func (r *Runner) RunWorkflows(flows []*workflow.Workflow) ([]Record, error) {
	var all []Record
	for _, w := range flows {
		recs, err := r.RunWorkflow(w)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}
