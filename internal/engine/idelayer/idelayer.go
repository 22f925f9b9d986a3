// Package idelayer implements the paper's "System Y" analogue: a commercial
// IDE frontend layer that delegates query execution to a DBMS backend
// (MonetDB in Exp. 5) and adds a per-query rendering/marshalling overhead of
// 1–2 seconds ("System Y renders and updates the visualizations ... roughly
// at the same speed as when one uses MonetDB directly, with an added delay
// of about 1-2s per query"). The paper found no evidence of a speculative
// pre-fetching layer, so none is modelled.
package idelayer

import (
	"fmt"
	"sync"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// renderDelay is the per-query overhead before a backend result becomes
// visible: ≈1.5s at the paper's scale, 250× scaled.
const renderDelay = 6 * time.Millisecond

// Engine wraps a backend engine and delays result visibility.
type Engine struct {
	// renderDelay starts as the package constant; in-package tests vary it.
	renderDelay time.Duration
	backend     engine.Engine
}

// New wraps backend; a nil backend panics at Prepare, not here, so
// construction stays infallible.
func New(backend engine.Engine) *Engine {
	return &Engine{renderDelay: renderDelay, backend: backend}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "idelayer(" + e.backend.Name() + ")" }

// Prepare implements engine.Engine by delegating to the backend.
func (e *Engine) Prepare(db *dataset.Database, opts engine.Options) error {
	return e.backend.Prepare(db, opts)
}

// Append implements engine.Appender when the backend does: the IDE layer
// adds rendering latency, not storage, so live ingestion passes straight
// through to the DBMS.
func (e *Engine) Append(rows *dataset.Table) error {
	a, ok := e.backend.(engine.Appender)
	if !ok {
		return fmt.Errorf("idelayer: backend %s does not support append", e.backend.Name())
	}
	return a.Append(rows)
}

// Watermark implements engine.Appender (0 when the backend cannot append).
func (e *Engine) Watermark() int64 {
	if a, ok := e.backend.(engine.Appender); ok {
		return a.Watermark()
	}
	return 0
}

// delay wraps a backend handle with the render-delay visibility rule.
func (e *Engine) delay(inner engine.Handle) engine.Handle {
	h := &delayedHandle{
		inner:  inner,
		done:   make(chan struct{}),
		cancel: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		select {
		case <-inner.Done():
		case <-h.cancel:
			return
		}
		select {
		case <-time.After(e.renderDelay):
		case <-h.cancel:
			return
		}
		h.mu.Lock()
		h.visible = true
		h.mu.Unlock()
	}()
	return h
}

// OpenSession implements engine.Engine: each IDE session wraps one backend
// session, adding the same render delay to every query the session issues.
func (e *Engine) OpenSession() engine.Session {
	return &session{e: e, inner: e.backend.OpenSession()}
}

// session is one IDE frontend connection over a backend session.
type session struct {
	e     *Engine
	inner engine.Session
}

// StartQuery delegates to the backend session and wraps the handle so the
// result (and completion) surface only after the render delay has elapsed
// on top of backend completion.
func (s *session) StartQuery(q *query.Query) (engine.Handle, error) {
	inner, err := s.inner.StartQuery(q)
	if err != nil {
		return nil, err
	}
	return s.e.delay(inner), nil
}

func (s *session) LinkVizs(from, to string) { s.inner.LinkVizs(from, to) }
func (s *session) DeleteViz(name string)    { s.inner.DeleteViz(name) }
func (s *session) WorkflowStart()           { s.inner.WorkflowStart() }
func (s *session) WorkflowEnd()             { s.inner.WorkflowEnd() }
func (s *session) Close()                   { s.inner.Close() }

var _ engine.Engine = (*Engine)(nil)

// delayedHandle hides the backend result until the render delay passed.
type delayedHandle struct {
	inner engine.Handle

	mu      sync.Mutex
	visible bool
	done    chan struct{}

	cancelOnce sync.Once
	cancel     chan struct{}
}

// Snapshot implements engine.Handle: nothing is visible until the render
// delay after backend completion (cancellation short-circuits the delay so
// benchmark runs do not accumulate stragglers).
func (h *delayedHandle) Snapshot() *query.Result {
	h.mu.Lock()
	v := h.visible
	h.mu.Unlock()
	if !v {
		return nil
	}
	return h.inner.Snapshot()
}

// Done implements engine.Handle.
func (h *delayedHandle) Done() <-chan struct{} { return h.done }

// Cancel implements engine.Handle.
func (h *delayedHandle) Cancel() {
	h.cancelOnce.Do(func() { close(h.cancel) })
	h.inner.Cancel()
}

var _ engine.Handle = (*delayedHandle)(nil)
