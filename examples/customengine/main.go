// Customengine: how to benchmark your own system. The paper's adapter
// interface (Sec. 4.5, Listing 1) maps to engine.Engine, which prepares the
// data and opens sessions, plus engine.Session, which carries the query
// verbs (start query, link, delete viz, workflow start/end). This example
// implements a small custom engine — a memoizing layer over the blocking
// column store that caches completed results per query signature (so
// repeated queries, common in exploration, return instantly) — and runs it
// head-to-head against its un-cached backend.
//
//	go run ./examples/customengine
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
	"idebench/internal/report"
)

// cachingEngine memoizes complete results by query signature. It
// implements engine.Engine and engine.Session and demonstrates everything an
// adapter author needs: delegation, handle wrapping, and per-workflow
// lifecycle hooks.
type cachingEngine struct {
	backend *exactdb.Engine // stateless: the engine is its own session

	mu    sync.Mutex
	cache map[string]*query.Result
}

func newCachingEngine() *cachingEngine {
	return &cachingEngine{backend: exactdb.New(), cache: map[string]*query.Result{}}
}

func (e *cachingEngine) Name() string { return "cached-exactdb" }

func (e *cachingEngine) Prepare(db *dataset.Database, opts engine.Options) error {
	return e.backend.Prepare(db, opts)
}

func (e *cachingEngine) StartQuery(q *query.Query) (engine.Handle, error) {
	sig := q.Signature()
	e.mu.Lock()
	cached := e.cache[sig]
	e.mu.Unlock()

	h := engine.NewAsyncHandle()
	if cached != nil {
		// Cache hit: the result is available immediately.
		h.Publish(cached.Clone())
		h.Finish()
		return h, nil
	}
	inner, err := e.backend.StartQuery(q)
	if err != nil {
		return nil, err
	}
	go func() {
		defer h.Finish()
		select {
		case <-inner.Done():
		}
		if res := inner.Snapshot(); res != nil && res.Complete {
			e.mu.Lock()
			e.cache[sig] = res.Clone()
			e.mu.Unlock()
			h.Publish(res)
		}
	}()
	// Forward cancellation to the backend.
	go func() {
		<-h.Done()
		inner.Cancel()
	}()
	return h, nil
}

// OpenSession returns the engine itself: the result cache is shared across
// sessions on purpose (a server-side cache serves every user), so one
// session object serving everyone is the correct multi-user behaviour here.
// Engines with per-user state return a fresh engine.Session instead.
func (e *cachingEngine) OpenSession() engine.Session { return e }

func (e *cachingEngine) LinkVizs(from, to string) { e.backend.LinkVizs(from, to) }
func (e *cachingEngine) DeleteViz(name string)    { e.backend.DeleteViz(name) }
func (e *cachingEngine) WorkflowStart() {
	// A fresh exploration session starts cold, like the paper's reuse
	// experiments.
	e.mu.Lock()
	e.cache = map[string]*query.Result{}
	e.mu.Unlock()
	e.backend.WorkflowStart()
}
func (e *cachingEngine) WorkflowEnd() { e.backend.WorkflowEnd() }
func (e *cachingEngine) Close()       {}

var _ engine.Engine = (*cachingEngine)(nil)

func main() {
	log.SetFlags(0)
	const rows = 250_000
	db, err := core.BuildData(rows, false, 21)
	if err != nil {
		log.Fatal(err)
	}
	flows, err := core.GenerateWorkflows(db, 2, 14, 33)
	if err != nil {
		log.Fatal(err)
	}
	mixed := core.MixedOnly(flows)

	gt := groundtruth.New(db)
	tr := 6 * time.Millisecond
	for _, eng := range []engine.Engine{exactdb.New(), newCachingEngine()} {
		if err := eng.Prepare(db, engine.Options{}); err != nil {
			log.Fatal(err)
		}
		res, err := driver.Replay(eng, gt, driver.Config{
			TimeRequirement: tr,
			ThinkTime:       time.Millisecond,
			DataSizeLabel:   core.SizeLabel(rows),
		}, mixed)
		if err != nil {
			log.Fatal(err)
		}
		rowsOut := report.Summarize(res.Records, report.GroupBy{Driver: true})
		fmt.Printf("engine %-15s → ", eng.Name())
		for _, s := range rowsOut {
			fmt.Printf("queries=%d tr_violated=%.1f%% (repeated queries answer from cache)\n",
				s.Queries, s.TRViolatedPct)
		}
	}
	fmt.Println("\nimplementing engine.Engine + engine.Session + engine.Handle is all an adapter needs")
}
