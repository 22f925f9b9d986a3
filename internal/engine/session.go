package engine

import "idebench/internal/query"

// Session is one simulated user's scope on a prepared engine. The prepared
// data and the engine's scan infrastructure (e.g. the shared-scan scheduler)
// are engine-wide and serve every session, while everything an analyst
// accumulates during exploration — the visualization namespace, link hints,
// reuse caches and speculation targets — is session-local. Concurrent
// sessions therefore share scans but never observe each other's
// visualizations.
//
// Sessions are safe to use from one goroutine each; distinct sessions may
// run fully concurrently. An engine whose execution carries no
// per-visualization state (blocking scans, offline samples, SQL adapters)
// may implement Session itself and return itself from OpenSession: every
// session of it is behaviourally identical.
type Session interface {
	// StartQuery begins asynchronous execution and returns immediately.
	StartQuery(q *query.Query) (Handle, error)
	// LinkVizs hints that selections on viz `from` will re-query viz `to`
	// within this session (speculative engines exploit this; others ignore
	// it).
	LinkVizs(from, to string)
	// DeleteViz tells the session a visualization was discarded so it can
	// free cached state.
	DeleteViz(name string)
	// WorkflowStart is called before a workflow begins; session-local caches
	// start cold.
	WorkflowStart()
	// WorkflowEnd is called after a workflow completes.
	WorkflowEnd()
	// Close releases session-held resources (detaches any standing scan
	// consumers). Using a session after Close is undefined.
	Close()
}

// Stateless is the Session half of an engine whose queries carry no
// per-visualization state (blocking scans, offline samples, SQL adapters).
// Embedded, it supplies every verb but StartQuery, so the engine can be its
// own session: link hints are ignored, nothing is cached per visualization,
// a workflow boundary changes nothing, and there is nothing to close.
type Stateless struct{}

// LinkVizs implements Session; link hints are ignored.
func (Stateless) LinkVizs(from, to string) {}

// DeleteViz implements Session; nothing is cached per visualization.
func (Stateless) DeleteViz(name string) {}

// WorkflowStart implements Session.
func (Stateless) WorkflowStart() {}

// WorkflowEnd implements Session.
func (Stateless) WorkflowEnd() {}

// Close implements Session; the session holds nothing.
func (Stateless) Close() {}
