package shard

import (
	"fmt"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// Faulty wraps an in-process engine and injects replica death: after
// Kill, every interface call fails the way a crashed process would (query
// starts error, live handles go silent and finish without a fragment,
// pings fail, appends error) until Revive. The inner engine's state is
// untouched — a revived replica answers at exactly the watermark it had,
// like a process restarted from its durable state — which is what the
// elasticity tests and the availability sweep need to exercise failover,
// degraded coverage and recovery without real processes.
type Faulty struct {
	inner engine.Engine

	mu   sync.Mutex
	down bool
	gen  chan struct{} // closed on Kill, replaced on Revive
}

// NewFaulty wraps inner, initially alive.
func NewFaulty(inner engine.Engine) *Faulty {
	return &Faulty{inner: inner, gen: make(chan struct{})}
}

// Kill starts failing all calls and silences live handles. Idempotent.
func (f *Faulty) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down {
		f.down = true
		close(f.gen)
	}
}

// Revive brings the replica back. Idempotent.
func (f *Faulty) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		f.down = false
		f.gen = make(chan struct{})
	}
}

// Down reports the injected state.
func (f *Faulty) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

func (f *Faulty) errIfDown() error {
	if f.Down() {
		return fmt.Errorf("faulty: %s is down", f.inner.Name())
	}
	return nil
}

// Ping implements the coordinator's Pinger probe.
func (f *Faulty) Ping() error { return f.errIfDown() }

// Name implements engine.Engine.
func (f *Faulty) Name() string { return f.inner.Name() }

// Prepare implements engine.Engine.
func (f *Faulty) Prepare(db *dataset.Database, opts engine.Options) error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	return f.inner.Prepare(db, opts)
}

// OpenSession implements engine.Engine.
func (f *Faulty) OpenSession() engine.Session {
	return &faultySession{f: f, inner: f.inner.OpenSession()}
}

// Append implements engine.Appender (the inner engine must have it).
func (f *Faulty) Append(rows *dataset.Table) error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	app, ok := f.inner.(engine.Appender)
	if !ok {
		return fmt.Errorf("faulty: %s cannot append", f.inner.Name())
	}
	return app.Append(rows)
}

// Watermark implements engine.Watermarker. It answers even while down —
// the data a dead process held is still on its disk; what Kill removes is
// reachability, which the coordinator tracks separately.
func (f *Faulty) Watermark() int64 {
	if wm, ok := f.inner.(engine.Watermarker); ok {
		return wm.Watermark()
	}
	return 0
}

// ActiveScanConsumers implements engine.ScanObserver.
func (f *Faulty) ActiveScanConsumers() int {
	if s, ok := f.inner.(engine.ScanObserver); ok {
		return s.ActiveScanConsumers()
	}
	return 0
}

// SnapshotView implements engine.ViewSnapshotter.
func (f *Faulty) SnapshotView() (*dataset.Database, []uint32) {
	if v, ok := f.inner.(engine.ViewSnapshotter); ok {
		return v.SnapshotView()
	}
	return nil, nil
}

// PrepareReordered implements engine.ReorderedPreparer.
func (f *Faulty) PrepareReordered(db *dataset.Database, perm []uint32, opts engine.Options) error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	if rp, ok := f.inner.(engine.ReorderedPreparer); ok {
		return rp.PrepareReordered(db, perm, opts)
	}
	return fmt.Errorf("faulty: %s cannot adopt reordered storage", f.inner.Name())
}

// faultySession fails query starts while the replica is down.
type faultySession struct {
	f     *Faulty
	inner engine.Session
}

func (s *faultySession) StartQuery(q *query.Query) (engine.Handle, error) {
	s.f.mu.Lock()
	down, gen := s.f.down, s.f.gen
	s.f.mu.Unlock()
	if down {
		return nil, fmt.Errorf("faulty: %s is down", s.f.inner.Name())
	}
	h, err := s.inner.StartQuery(q)
	if err != nil {
		return nil, err
	}
	return newFaultyHandle(s.f, h, gen), nil
}

func (s *faultySession) LinkVizs(from, to string) { s.inner.LinkVizs(from, to) }
func (s *faultySession) DeleteViz(name string)    { s.inner.DeleteViz(name) }
func (s *faultySession) WorkflowStart()           { s.inner.WorkflowStart() }
func (s *faultySession) WorkflowEnd()             { s.inner.WorkflowEnd() }
func (s *faultySession) Close()                   { s.inner.Close() }

// faultyHandle silences a live handle when its replica dies mid-query:
// Done fires (like a dropped connection completing the client handle) and
// the fragment disappears, which is exactly the shape the coordinator's
// failover path keys on.
type faultyHandle struct {
	f     *Faulty
	inner engine.Handle
	gen   chan struct{}
	done  chan struct{}
}

func newFaultyHandle(f *Faulty, inner engine.Handle, gen chan struct{}) *faultyHandle {
	h := &faultyHandle{f: f, inner: inner, gen: gen, done: make(chan struct{})}
	go func() {
		select {
		case <-inner.Done():
		case <-gen:
			inner.Cancel()
		}
		close(h.done)
	}()
	return h
}

// killed reports whether the replica died after this handle started.
func (h *faultyHandle) killed() bool {
	select {
	case <-h.gen:
		return true
	default:
		return false
	}
}

func (h *faultyHandle) Snapshot() *query.Result {
	if h.killed() {
		return nil
	}
	return h.inner.Snapshot()
}

// PartialSnapshot implements engine.PartialSnapshotter.
func (h *faultyHandle) PartialSnapshot() *engine.Partial {
	if h.killed() {
		return nil
	}
	return partialOf(h.inner)
}

func (h *faultyHandle) Done() <-chan struct{} { return h.done }
func (h *faultyHandle) Cancel()               { h.inner.Cancel() }
