package enginetest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// MultiUserScenario is the conformance case for the session layer: several
// concurrent simulated users on one prepared engine, each on its own
// session with its own viz namespace. Every user issues concurrent query
// batches, links its own visualizations (feeding per-session speculation
// where the engine has it), re-issues a query (the per-session reuse path)
// and deletes a viz name that every other session also uses — none of which
// may disturb any other user's results. All sessions' final results must
// match independent single-query scans, which pins down that whatever the
// engine shares between sessions (scan schedulers, worker pools, sample
// tables) is invisible in the answers. Run it under -race: the schedule
// interleaving of sessions is the point.
func MultiUserScenario(t *testing.T, factory func() engine.Engine, exactWhenComplete bool) {
	t.Helper()
	e := factory()
	if err := e.Prepare(multiUserDB(), engine.Options{}); err != nil {
		t.Fatal(err)
	}
	const users = 4
	errCh := make(chan error, users*16)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := runUser(e, u, exactWhenComplete); err != nil {
				errCh <- fmt.Errorf("user %d: %w", u, err)
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// runUser is one simulated user's session script.
func runUser(e engine.Engine, u int, exact bool) error {
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	// Rotate the shared shape pool per user: sessions overlap on some query
	// signatures (exercising any cross-session sharing the engine does) but
	// not all.
	shapes := MultiVizQueries(6)
	mine := make([]*query.Query, 3)
	for i := range mine {
		q := shapes[(u+i)%len(shapes)]
		mine[i] = q
		// Per-user viz namespace, plus one viz name deliberately shared by
		// every session.
		if i == 1 {
			q.VizName = "shared"
		} else {
			q.VizName = fmt.Sprintf("u%d_viz%d", u, i)
		}
	}

	check := func(qs []*query.Query) error {
		handles := make([]engine.Handle, len(qs))
		for i, q := range qs {
			h, err := sess.StartQuery(q)
			if err != nil {
				return fmt.Errorf("start %s: %w", q.VizName, err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			select {
			case <-h.Done():
			case <-time.After(30 * time.Second):
				return fmt.Errorf("%s did not complete", qs[i].VizName)
			}
			res := h.Snapshot()
			if res == nil {
				return fmt.Errorf("%s returned no result", qs[i].VizName)
			}
			gt, err := exactRef(qs[i])
			if err != nil {
				return err
			}
			if exact {
				// Shared-scan fold order may shift float sums in the last
				// bits, nothing more.
				if err := ResultsEqual(gt, res, 1e-9); err != nil {
					return fmt.Errorf("%s diverged: %w", qs[i].VizName, err)
				}
			} else if err := looselyEqual(gt, res, qs[i]); err != nil {
				// A sampling engine answers from a fixed sample: individual
				// bins are noisy by design, so the contract under
				// concurrency is the same one Conformance holds it to —
				// summable aggregates hit the right total and nothing
				// impossible is reported.
				return fmt.Errorf("%s diverged: %w", qs[i].VizName, err)
			}
		}
		return nil
	}

	// Round 1: the user's dashboard fans out concurrently.
	if err := check(mine); err != nil {
		return err
	}
	// The user links two of its vizs (per-session speculation rides on this
	// where supported) and discards the shared-named viz — which must only
	// affect this session's namespace.
	sess.LinkVizs(mine[0].VizName, mine[1].VizName)
	sess.DeleteViz("shared")
	// Round 2: re-issue one query (per-session reuse) plus, on exact
	// engines, a fresh drill-down; answers must still match independent
	// scans. Sampling engines skip the drill-down's per-bin comparison —
	// a single-carrier filter leaves strata too sparse for the blanket 20%
	// tolerance to be a meaningful contract.
	round2 := []*query.Query{mine[0]}
	if exact {
		drill := *mine[0]
		drill.VizName = fmt.Sprintf("u%d_drill", u)
		drill.Filter = mine[0].Filter.And(query.Predicate{
			Field: "carrier", Op: query.OpIn, Values: []string{Carriers[u%len(Carriers)]},
		})
		round2 = append(round2, &drill)
	}
	return check(round2)
}

// looselyEqual is the sampling-engine contract: delivered bins exist in a
// sane quantity, margins are finite, and for summable aggregates (COUNT,
// SUM) the scaled total lands within 15% of the exact total.
func looselyEqual(gt, res *query.Result, q *query.Query) error {
	if len(res.Bins) == 0 && len(gt.Bins) > 0 {
		return fmt.Errorf("no bins delivered (ground truth has %d)", len(gt.Bins))
	}
	if !res.FiniteMargins() {
		return fmt.Errorf("non-finite margins delivered")
	}
	for ai, agg := range q.Aggs {
		if agg.Func != query.Count && agg.Func != query.Sum {
			continue
		}
		var gtTotal, resTotal float64
		for _, bv := range gt.Bins {
			gtTotal += bv.Values[ai]
		}
		for _, bv := range res.Bins {
			resTotal += bv.Values[ai]
		}
		if gtTotal == 0 {
			continue
		}
		if diff := (resTotal - gtTotal) / gtTotal; diff < -0.15 || diff > 0.15 {
			return fmt.Errorf("agg %d total %v, want within 15%% of %v", ai, resTotal, gtTotal)
		}
	}
	return nil
}

// The scenario database is built lazily, once per test binary, and shared
// between engine preparation and reference evaluation: engines never mutate
// their input database, and test binaries that never run the scenario
// should not pay for a 60k-row build at package init.
var (
	refOnce  sync.Once
	refDB    *dataset.Database
	refMu    sync.Mutex
	refCache = map[string]*query.Result{}
)

func multiUserDB() *dataset.Database {
	refOnce.Do(func() { refDB = SmallDB(60000, 99) })
	return refDB
}

// exactRef returns the independent-scan reference for q, cached by
// signature: with four sessions issuing overlapping signatures the scenario
// would otherwise spend most of its budget recomputing ground truth.
func exactRef(q *query.Query) (*query.Result, error) {
	db := multiUserDB()
	refMu.Lock()
	defer refMu.Unlock()
	sig := q.Signature()
	if res, ok := refCache[sig]; ok {
		return res, nil
	}
	res, err := Exact(db, q)
	if err != nil {
		return nil, err
	}
	refCache[sig] = res
	return res, nil
}
