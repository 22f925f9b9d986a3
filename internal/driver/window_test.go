package driver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// countingEngine wraps an engine and counts the sessions and query handles
// the driver holds open: a handle is open from StartQuery until its first
// Cancel.
type countingEngine struct {
	engine.Engine
	sessions, handles atomic.Int64
	opened            atomic.Bool
}

func (e *countingEngine) OpenSession() engine.Session {
	e.sessions.Add(1)
	e.opened.Store(true)
	return &countingSession{Session: e.Engine.OpenSession(), e: e}
}

type countingSession struct {
	engine.Session
	e *countingEngine
}

func (s *countingSession) StartQuery(q *query.Query) (engine.Handle, error) {
	h, err := s.Session.StartQuery(q)
	if err != nil {
		return nil, err
	}
	s.e.handles.Add(1)
	return &countingHandle{Handle: h, e: s.e}, nil
}

func (s *countingSession) Close() {
	s.Session.Close()
	s.e.sessions.Add(-1)
}

type countingHandle struct {
	engine.Handle
	e    *countingEngine
	once sync.Once
}

func (h *countingHandle) Cancel() {
	h.Handle.Cancel()
	h.once.Do(func() { h.e.handles.Add(-1) })
}

// windowClock notes the first clock read taken with every session closed
// after one was opened. Every user reads the clock only with its own
// session open, so that read is Replay closing its timed window.
type windowClock struct {
	Clock
	e      *countingEngine
	closed atomic.Bool
}

func (c *windowClock) Now() time.Time {
	if c.e.opened.Load() && c.e.sessions.Load() == 0 {
		c.closed.Store(true)
	}
	return c.Clock.Now()
}

// windowTruth is a truth source that refuses to answer inside the timed
// window: while a handle or a session is open, or before the window's
// closing clock read.
type windowTruth struct {
	Truth
	e     *countingEngine
	clock *windowClock
	calls atomic.Int64
}

func (w *windowTruth) TruthAt(q *query.Query, watermark int64) (*query.Result, error) {
	w.calls.Add(1)
	if n := w.e.handles.Load(); n != 0 {
		return nil, fmt.Errorf("scored with %d query handles open", n)
	}
	if n := w.e.sessions.Load(); n != 0 {
		return nil, fmt.Errorf("scored with %d sessions open", n)
	}
	if !w.clock.closed.Load() {
		return nil, fmt.Errorf("scored before the timed window closed")
	}
	return w.Truth.TruthAt(q, watermark)
}

// TestNoScoringInsideWindow is the wall behind deferred scoring: every
// reference is resolved after the timed window, never between the queries
// it times, for single- and multi-user static replays and for an ingest
// replay.
func TestNoScoringInsideWindow(t *testing.T) {
	static := func(users int, flows []*workflow.Workflow) func(t *testing.T) {
		return func(t *testing.T) {
			gt, e := prepared(t, exactdb.New(), 5000)
			checkWindow(t, e, gt, Config{Users: users}, flows)
		}
	}
	t.Run("1-user-static", static(1, []*workflow.Workflow{simpleWorkflow()}))
	t.Run("4-user-static", static(4, multiFlows(8)))
	t.Run("2-user-ingest", func(t *testing.T) {
		db := enginetest.SmallDB(5000, 11)
		e := exactdb.New()
		if err := e.Prepare(db, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		var batches []*ingest.Batch
		for i := 0; i < 8; i++ {
			batches = append(batches, ingest.FromTable(db.Fact, i*200, (i+1)*200))
		}
		h := ingest.NewHarness(db, ingest.NewFixedSource(batches...), ingest.EngineSink{A: e})
		flows := workflow.InterleaveIngestAll(multiFlows(2), 2, 200)
		checkWindow(t, e, h, Config{Users: 2, IngestSink: h}, flows)
		if h.Batches() == 0 {
			t.Error("ingest replay applied no batches")
		}
	})
}

func checkWindow(t *testing.T, e engine.Engine, truth Truth, cfg Config, flows []*workflow.Workflow) {
	t.Helper()
	ce := &countingEngine{Engine: e}
	clock := &windowClock{Clock: simClock(), e: ce}
	wt := &windowTruth{Truth: truth, e: ce, clock: clock}
	cfg.TimeRequirement = time.Hour
	cfg.ThinkTime = time.Millisecond
	cfg.Clock = clock
	res := replay(t, ce, wt, cfg, flows...)
	if len(res.Records) == 0 || wt.calls.Load() != int64(len(res.Records)) {
		t.Fatalf("%d truth lookups for %d records, want one each", wt.calls.Load(), len(res.Records))
	}
}
