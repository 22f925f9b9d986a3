package progressive

import (
	"sync"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/query"
)

// blockRows reports how many rows the session's cached state for q has
// merged from recorded block tables.
func (s *session) blockRows(q *query.Query) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[q.Signature()]
	if !ok {
		return 0
	}
	return st.BlockRowsServed()
}

// blockQueries are unfiltered 1-D dashboard queries of four shapes.
func blockQueries() []*query.Query {
	byState := []query.Binning{{Field: "origin_state", Kind: dataset.Nominal}}
	return []*query.Query{
		enginetest.CountByCarrier(),
		enginetest.AvgDelayByDistance(),
		{VizName: "viz_sum", Table: "flights", Bins: byState,
			Aggs: []query.Aggregate{{Func: query.Sum, Field: "dep_delay"}}},
		{VizName: "viz_range", Table: "flights", Bins: byState,
			Aggs: []query.Aggregate{{Func: query.Min, Field: "arr_delay"}, {Func: query.Max, Field: "arr_delay"}}},
	}
}

// TestBlockAggregatesAcrossSessions: two sessions issue the same unfiltered
// 1-D queries at once and race to record their shapes' block tables; every
// answer is exact. A third session starts with a cold cache, finds no
// answer, and merges the recorded tables — exactly again.
func TestBlockAggregatesAcrossSessions(t *testing.T) {
	db := enginetest.SmallDB(40*engine.BatchRows+123, 61)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Seed: 5, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	qs := blockQueries()
	results := make([]*query.Result, 2*len(qs))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		sess := e.OpenSession()
		defer sess.Close()
		sess.WorkflowStart()
		for j, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, err := sess.StartQuery(q)
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-h.Done():
					results[i*len(qs)+j] = h.Snapshot()
				case <-time.After(30 * time.Second):
					t.Errorf("%s did not complete", q.VizName)
				}
			}()
		}
	}
	wg.Wait()
	for i, res := range results {
		q := qs[i%len(qs)]
		gt, err := enginetest.Exact(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("%s has no result", q.VizName)
		}
		if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
			t.Fatalf("%s in session %d: %v", q.VizName, i/len(qs), err)
		}
	}
	third := e.OpenSession().(*session)
	defer third.Close()
	third.WorkflowStart()
	for _, q := range blockQueries() {
		runExact(t, third, db, q)
		if n := third.blockRows(q); n == 0 {
			t.Fatalf("%s merged no recorded block table", q.VizName)
		}
	}
}
