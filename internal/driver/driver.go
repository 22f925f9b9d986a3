// Package driver implements the benchmark driver (paper Sec. 4.4): it
// replays workflows against a system adapter, maintains the visualization
// graph, issues the concurrent queries each interaction triggers, enforces
// the time requirement (cancelling overdue queries), sleeps the think time
// between interactions, and evaluates every query against ground truth.
//
// Replay is the one entry point. It replays workflows as Config.Users
// concurrent simulated analysts against one prepared engine, each on its
// own engine.Session: one user is the paper's single-analyst driver, more
// exercise multi-user scaling (shared scans amortizing across users).
// Inside the timed window the driver only issues queries and captures what
// each one delivered; every capture is scored against a Truth after the
// window closes, so reference scans never compete with the engine for CPU.
// All waiting goes through the Clock abstraction so tests replace real
// sleeps with simulated time.
package driver

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"idebench/internal/engine"
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
	// Users is the number of concurrent simulated users (default 1).
	// Workflows are dealt to users round-robin; each user replays its share
	// sequentially on its own engine session while all users run
	// concurrently.
	Users int
	// ThinkJitter is the ± fraction by which each user's think time varies
	// around ThinkTime, drawn per interaction from the user's own
	// deterministic stream. Zero means every user sleeps exactly ThinkTime
	// — the honest default for the raw driver API, where a recorded run
	// must match its settings. Multi-user entry points
	// (core.Prepared.RunUsers, the user-sweep experiment) opt into jitter:
	// real analysts do not pause in lockstep, and jitter keeps simulated
	// users from issuing queries in convoy.
	ThinkJitter float64
	// Seed drives the per-user jitter streams (default 1).
	Seed int64
	// Clock supplies time; nil means WallClock. Tests inject a SimClock so
	// think times and deadline waits run in simulated time.
	Clock Clock
	// IngestSink handles ingest interactions (nil: workflows containing
	// them fail). With a sink installed the replay is ingest-aware: every
	// delivered result is scored against the truth of the data version its
	// watermark names, and its staleness (live watermark minus result
	// watermark) is recorded.
	IngestSink IngestSink
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.ThinkJitter < 0 {
		c.ThinkJitter = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	return c
}

// DefaultThinkJitter is the jitter fraction the benchmark harness layers
// use when simulating independent analysts.
const DefaultThinkJitter = 0.25

// Truth is where a replay's references come from: TruthAt returns the
// exact result of q at the data version watermark names. groundtruth.Cache
// answers for a static database (ignoring the watermark), ingest.Harness
// for a live ingestion timeline.
type Truth interface {
	TruthAt(q *query.Query, watermark int64) (*query.Result, error)
}

// IngestSink is the driver's window into a live-ingestion timeline
// (implemented by ingest.Harness). Ingest applies one event and returns the
// new live watermark; Watermark reads it.
type IngestSink interface {
	Ingest(rows int) (watermark int64, err error)
	Watermark() int64
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

// Result is the outcome of one replay.
type Result struct {
	// Records holds every user's records, concatenated in user order and
	// numbered with run-unique IDs.
	Records []Record
	// Users is the effective concurrent-user count: the configured count,
	// capped at the number of workflows (a user with nothing to replay is
	// not a user). Callers that asked for more should surface the cap.
	Users int
	// WallClock is the timed window on the configured clock: from before
	// the first user starts until the last one finishes. Scoring is not in
	// it.
	WallClock time.Duration
}

// QueriesPerSec is the aggregate throughput across all users.
func (r *Result) QueriesPerSec() float64 {
	if r.WallClock <= 0 {
		return 0
	}
	return float64(len(r.Records)) / r.WallClock.Seconds()
}

// Replay replays flows as cfg.Users concurrent simulated users against eng,
// which must already be prepared for the data truth describes, and scores
// every record against truth once all users are done.
func Replay(eng engine.Engine, truth Truth, cfg Config, flows []*workflow.Workflow) (*Result, error) {
	for _, w := range flows {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}
	if len(flows) == 0 {
		return &Result{}, nil
	}
	cfg = cfg.withDefaults()
	users := make([]*user, min(cfg.Users, len(flows)))
	for u := range users {
		users[u] = newUser(eng.Name(), &cfg, u, len(users))
	}
	for i, w := range flows {
		u := users[i%len(users)]
		u.flows = append(u.flows, w)
	}

	start := cfg.Clock.Now()
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.err = u.run(eng)
		}()
	}
	wg.Wait()
	res := &Result{Users: len(users), WallClock: cfg.Clock.Now().Sub(start)}

	for _, u := range users {
		if u.err != nil {
			return nil, fmt.Errorf("driver: user %d: %w", u.id, u.err)
		}
	}
	for _, u := range users {
		for i := range u.records {
			rec := &u.records[i]
			m, err := u.captures[i].score(truth, cfg.IngestSink != nil)
			if err != nil {
				return nil, fmt.Errorf("driver: ground truth for %s: %w", rec.VizName, err)
			}
			rec.Metrics = m
			rec.ID = len(res.Records)
			res.Records = append(res.Records, *rec)
		}
	}
	return res, nil
}

// capture is what one query delivered, kept for scoring after the timed
// window.
type capture struct {
	q    *query.Query
	res  *query.Result // nil: nothing fetchable at the deadline
	live int64         // sink watermark at fetch time (0 without a sink)
}

// score evaluates the capture against the truth of the data version its
// result claims (its watermark, or the live one when it names none). In an
// ingest-aware replay staleness is how far the live table had moved past
// that version when the result was fetched.
func (c capture) score(truth Truth, ingestAware bool) (metrics.QueryMetrics, error) {
	w := c.live
	if c.res != nil && c.res.Watermark > 0 {
		w = c.res.Watermark
	}
	gt, err := truth.TruthAt(c.q, w)
	if err != nil {
		return metrics.QueryMetrics{}, err
	}
	if c.res == nil {
		return metrics.Violated(gt), nil
	}
	m := metrics.Evaluate(c.res, gt, false)
	if ingestAware {
		m.StalenessRows = float64(max(c.live-w, 0))
	}
	return m, nil
}

// user is one simulated analyst: its share of the workflows, replayed in
// order on its own session, and a record plus a capture per query.
type user struct {
	name   string
	cfg    *Config
	id     int
	users  int
	flows  []*workflow.Workflow
	jitter *rand.Rand // nil: think exactly cfg.ThinkTime
	sess   engine.Session

	records  []Record
	captures []capture
	err      error
}

func newUser(name string, cfg *Config, id, users int) *user {
	u := &user{name: name, cfg: cfg, id: id, users: users}
	if cfg.ThinkTime > 0 && cfg.ThinkJitter != 0 {
		// Each user's stream has its own seed, so think times are
		// reproducible per user regardless of scheduling.
		u.jitter = rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	}
	return u
}

// thinkTime returns the pause before the user's next interaction.
func (u *user) thinkTime() time.Duration {
	if u.jitter == nil {
		return u.cfg.ThinkTime
	}
	f := 1 + u.cfg.ThinkJitter*(2*u.jitter.Float64()-1)
	return time.Duration(float64(u.cfg.ThinkTime) * f)
}

func (u *user) run(eng engine.Engine) error {
	u.sess = eng.OpenSession()
	defer u.sess.Close()
	for _, w := range u.flows {
		if err := u.replay(w); err != nil {
			return err
		}
	}
	return nil
}

// replay runs one workflow.
func (u *user) replay(w *workflow.Workflow) error {
	graph := workflow.NewGraph()
	u.sess.WorkflowStart()
	defer u.sess.WorkflowEnd()

	for idx, in := range w.Interactions {
		eff, err := graph.Apply(in)
		if err != nil {
			return fmt.Errorf("driver: workflow %s interaction %d: %w", w.Name, idx, err)
		}
		if eff.NewLink != nil {
			u.sess.LinkVizs(eff.NewLink[0], eff.NewLink[1])
		}
		if eff.Discarded != "" {
			u.sess.DeleteViz(eff.Discarded)
		}
		if eff.IngestRows > 0 {
			if u.cfg.IngestSink == nil {
				return fmt.Errorf("driver: workflow %s interaction %d: ingest event without an ingest sink", w.Name, idx)
			}
			if _, err := u.cfg.IngestSink.Ingest(eff.IngestRows); err != nil {
				return fmt.Errorf("driver: workflow %s interaction %d: %w", w.Name, idx, err)
			}
		}
		if err := u.runQueries(w, idx, eff.Queries); err != nil {
			return err
		}
		if idx < len(w.Interactions)-1 {
			if think := u.thinkTime(); think > 0 {
				u.cfg.Clock.Sleep(think)
			}
		}
	}
	return nil
}

// runQueries launches all queries of one interaction simultaneously,
// enforces the TR, and captures what each one delivered.
func (u *user) runQueries(w *workflow.Workflow, interactionID int, qs []*query.Query) error {
	if len(qs) == 0 {
		return nil
	}
	clock := u.cfg.Clock
	hs := make([]engine.Handle, len(qs))
	starts := make([]time.Time, len(qs))
	for i, q := range qs {
		starts[i] = clock.Now()
		h, err := u.sess.StartQuery(q)
		if err != nil {
			for _, started := range hs[:i] {
				started.Cancel()
			}
			return fmt.Errorf("driver: start query for %s: %w", q.VizName, err)
		}
		hs[i] = h
	}
	deadline := clock.Now().Add(u.cfg.TimeRequirement)

	for i, q := range qs {
		// Wait until the query finishes or the shared deadline passes.
		t := clock.NewTimer(deadline.Sub(clock.Now()))
		select {
		case <-hs[i].Done():
		case <-t.C():
		}
		t.Stop()
		res := hs[i].Snapshot()
		hs[i].Cancel()
		end := clock.Now()

		c := capture{q: q, res: res}
		if u.cfg.IngestSink != nil {
			c.live = u.cfg.IngestSink.Watermark()
		}
		u.captures = append(u.captures, c)
		u.records = append(u.records, Record{
			InteractionID: interactionID,
			VizName:       q.VizName,
			Driver:        u.name,
			DataSize:      u.cfg.DataSizeLabel,
			ThinkTimeMS:   float64(u.cfg.ThinkTime) / float64(time.Millisecond),
			TimeReqMS:     float64(u.cfg.TimeRequirement) / float64(time.Millisecond),
			Workflow:      w.Name,
			WorkflowType:  w.Type,
			User:          u.id,
			Users:         u.users,
			StartTime:     starts[i],
			EndTime:       end,
			BinDims:       q.BinDims(),
			BinningType:   q.BinningType(),
			AggType:       q.AggType(),
			ConcurrentQs:  len(qs),
			SQL:           q.ToSQL(),
		})
	}
	return nil
}
