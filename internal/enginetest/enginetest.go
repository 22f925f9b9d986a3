// Package enginetest provides shared fixtures and a conformance suite for
// engine implementations: a deterministic miniature flights database, exact
// reference evaluation, and behavioural checks every engine must pass
// (correct totals at completion, cancellation, error paths).
package enginetest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
)

// Carriers used by the fixture, in dictionary-code order.
var Carriers = []string{"AA", "UA", "DL", "WN", "B6"}

// States used by the fixture.
var States = []string{"CA", "TX", "NY", "FL", "IL", "MA"}

// SmallDB builds a deterministic de-normalized flights-like database with n
// rows. Distributions are fixed by seed so tests can rely on exact values.
func SmallDB(n int, seed int64) *dataset.Database {
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "origin_state", Kind: dataset.Nominal},
		{Name: "dep_delay", Kind: dataset.Quantitative},
		{Name: "arr_delay", Kind: dataset.Quantitative},
		{Name: "distance", Kind: dataset.Quantitative},
	})
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("flights", schema, n)
	for i := 0; i < n; i++ {
		b.AppendString(0, Carriers[rng.Intn(len(Carriers))])
		b.AppendString(1, States[rng.Intn(len(States))])
		dep := rng.NormFloat64()*20 + 5
		b.AppendNum(2, dep)
		b.AppendNum(3, dep+rng.NormFloat64()*10)
		b.AppendNum(4, 100+rng.Float64()*2400)
	}
	fact, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &dataset.Database{Fact: fact}
}

// NormalizedDB builds a star-schema variant: the fact table keeps the
// quantitative columns plus FK columns into a carrier dimension (carrier,
// carrier_region) and a state dimension (origin_state).
func NormalizedDB(n int, seed int64) *dataset.Database {
	factSchema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier_fk", Kind: dataset.Quantitative},
		{Name: "state_fk", Kind: dataset.Quantitative},
		{Name: "dep_delay", Kind: dataset.Quantitative},
		{Name: "arr_delay", Kind: dataset.Quantitative},
		{Name: "distance", Kind: dataset.Quantitative},
	})
	rng := rand.New(rand.NewSource(seed))
	fb := dataset.NewBuilder("flights", factSchema, n)
	for i := 0; i < n; i++ {
		fb.AppendNum(0, float64(rng.Intn(len(Carriers))))
		fb.AppendNum(1, float64(rng.Intn(len(States))))
		dep := rng.NormFloat64()*20 + 5
		fb.AppendNum(2, dep)
		fb.AppendNum(3, dep+rng.NormFloat64()*10)
		fb.AppendNum(4, 100+rng.Float64()*2400)
	}
	fact, err := fb.Build()
	if err != nil {
		panic(err)
	}

	carrierSchema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "carrier_region", Kind: dataset.Nominal},
	})
	cb := dataset.NewBuilder("carriers", carrierSchema, len(Carriers))
	for i, c := range Carriers {
		cb.AppendString(0, c)
		if i%2 == 0 {
			cb.AppendString(1, "legacy")
		} else {
			cb.AppendString(1, "lowcost")
		}
	}
	carriers, err := cb.Build()
	if err != nil {
		panic(err)
	}

	stateSchema := dataset.MustSchema([]dataset.Field{
		{Name: "origin_state", Kind: dataset.Nominal},
	})
	sb := dataset.NewBuilder("states", stateSchema, len(States))
	for _, s := range States {
		sb.AppendString(0, s)
	}
	statesTbl, err := sb.Build()
	if err != nil {
		panic(err)
	}

	return &dataset.Database{
		Fact: fact,
		Dimensions: []*dataset.Dimension{
			{Table: carriers, FKColumn: "carrier_fk"},
			{Table: statesTbl, FKColumn: "state_fk"},
		},
	}
}

// CountByCarrier is the canonical 1D nominal COUNT query.
func CountByCarrier() *query.Query {
	return &query.Query{
		VizName: "viz_carrier",
		Table:   "flights",
		Bins:    []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs:    []query.Aggregate{{Func: query.Count}},
	}
}

// AvgDelayByDistance is the canonical 1D quantitative AVG query.
func AvgDelayByDistance() *query.Query {
	return &query.Query{
		VizName: "viz_dist",
		Table:   "flights",
		Bins:    []query.Binning{{Field: "distance", Kind: dataset.Quantitative, Width: 500}},
		Aggs:    []query.Aggregate{{Func: query.Avg, Field: "arr_delay"}},
	}
}

// Exact computes ground truth for q against db via a direct scan.
func Exact(db *dataset.Database, q *query.Query) (*query.Result, error) {
	return groundtruth.Exact(db, q)
}

// WaitResult waits for the handle to complete (with timeout) and returns
// its snapshot.
func WaitResult(t *testing.T, h engine.Handle, timeout time.Duration) *query.Result {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(timeout):
		t.Fatal("query did not complete in time")
	}
	return h.Snapshot()
}

// ResultsEqual compares two results bin-by-bin within tolerance.
func ResultsEqual(a, b *query.Result, tol float64) error {
	if len(a.Bins) != len(b.Bins) {
		return fmt.Errorf("bin counts differ: %d vs %d", len(a.Bins), len(b.Bins))
	}
	for k, av := range a.Bins {
		bv, ok := b.Bins[k]
		if !ok {
			return fmt.Errorf("bin %v missing", k)
		}
		for i := range av.Values {
			if math.Abs(av.Values[i]-bv.Values[i]) > tol*(1+math.Abs(av.Values[i])) {
				return fmt.Errorf("bin %v agg %d: %v vs %v", k, i, av.Values[i], bv.Values[i])
			}
		}
	}
	return nil
}

// MultiVizQueries returns n concurrent dashboard-shaped queries against the
// SmallDB schema: distinct shapes (counts, averages, filtered variants) plus
// deliberate signature duplicates under different viz names, the mix a
// linked-visualization interaction re-issues at once.
func MultiVizQueries(n int) []*query.Query {
	shapes := []func() *query.Query{
		CountByCarrier,
		AvgDelayByDistance,
		func() *query.Query {
			q := CountByCarrier()
			q.Filter = query.Filter{Predicates: []query.Predicate{
				{Field: "origin_state", Op: query.OpIn, Values: []string{"CA"}},
			}}
			return q
		},
		func() *query.Query {
			return &query.Query{
				Table: "flights",
				Bins:  []query.Binning{{Field: "origin_state", Kind: dataset.Nominal}},
				Aggs:  []query.Aggregate{{Func: query.Sum, Field: "distance"}},
			}
		},
		func() *query.Query {
			q := AvgDelayByDistance()
			q.Filter = query.Filter{Predicates: []query.Predicate{
				{Field: "dep_delay", Op: query.OpRange, Lo: -10, Hi: 40},
			}}
			return q
		},
		func() *query.Query {
			return &query.Query{
				Table: "flights",
				Bins: []query.Binning{
					{Field: "carrier", Kind: dataset.Nominal},
					{Field: "origin_state", Kind: dataset.Nominal},
				},
				Aggs: []query.Aggregate{{Func: query.Count}},
			}
		},
	}
	out := make([]*query.Query, n)
	for i := range out {
		q := shapes[i%len(shapes)]()
		q.VizName = fmt.Sprintf("viz_%d", i)
		out[i] = q
	}
	return out
}

// ConcurrentMultiViz asserts that queries executed concurrently on one
// engine produce the same results as independent per-query scans (the exact
// ground-truth evaluation): the contract a shared-scan scheduler must keep
// while folding one cursor through many consumer states. Mid-flight partial
// snapshots, when the engine exposes them, must be internally consistent —
// finite margins and monotone progress. exactWhenComplete mirrors
// Conformance: engines answering from samples get a 20% tolerance.
func ConcurrentMultiViz(t *testing.T, factory func() engine.Engine, exactWhenComplete bool) {
	t.Helper()
	db := SmallDB(150000, 77)
	e := factory()
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	s := e.OpenSession()
	defer s.Close()
	s.WorkflowStart()
	defer s.WorkflowEnd()

	queries := MultiVizQueries(8)
	handles := make([]engine.Handle, len(queries))
	for i, q := range queries {
		h, err := s.StartQuery(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		handles[i] = h
	}

	// Poll while in flight: partial snapshots must never report impossible
	// state (rows beyond the table, backwards progress, infinite margins).
	lastSeen := make([]int64, len(handles))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		inFlight := false
		for i, h := range handles {
			select {
			case <-h.Done():
				continue
			default:
				inFlight = true
			}
			snap := h.Snapshot()
			if snap == nil || snap.RowsSeen == 0 {
				continue
			}
			if snap.RowsSeen > snap.TotalRows {
				t.Fatalf("query %d: RowsSeen %d > TotalRows %d", i, snap.RowsSeen, snap.TotalRows)
			}
			if snap.RowsSeen < lastSeen[i] {
				t.Fatalf("query %d: progress went backwards (%d -> %d)", i, lastSeen[i], snap.RowsSeen)
			}
			lastSeen[i] = snap.RowsSeen
			if !snap.Complete && !snap.FiniteMargins() {
				t.Fatalf("query %d: partial snapshot without finite margins", i)
			}
		}
		if !inFlight {
			break
		}
		// Yield between polls: a hot spin would steal the core from the very
		// scan workers this loop is waiting on (single-CPU CI).
		time.Sleep(time.Millisecond)
	}

	tol := 1e-9 // shared-scan fold order may shift float sums in the last bits
	if !exactWhenComplete {
		tol = 0.2
	}
	for i, h := range handles {
		res := WaitResult(t, h, 30*time.Second)
		if res == nil {
			t.Fatalf("query %d returned no result", i)
		}
		gt, err := Exact(db, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := ResultsEqual(gt, res, tol); err != nil {
			t.Errorf("query %d (%s) diverged from independent scan: %v", i, queries[i].Signature(), err)
		}
	}
}

// Conformance runs the behavioural suite every engine must pass on a
// de-normalized database.
func Conformance(t *testing.T, factory func() engine.Engine, exactWhenComplete bool) {
	t.Helper()
	db := SmallDB(20000, 42)
	// open prepares a fresh engine and opens a session on it, closed when
	// the subtest ends.
	open := func(t *testing.T) engine.Session {
		e := factory()
		if err := e.Prepare(db, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		s := e.OpenSession()
		t.Cleanup(s.Close)
		return s
	}

	t.Run("StartBeforePrepare", func(t *testing.T) {
		s := factory().OpenSession()
		defer s.Close()
		if _, err := s.StartQuery(CountByCarrier()); err == nil {
			t.Error("StartQuery before Prepare should fail")
		}
	})

	t.Run("UnknownTable", func(t *testing.T) {
		s := open(t)
		q := CountByCarrier()
		q.Table = "nope"
		if _, err := s.StartQuery(q); err == nil {
			t.Error("unknown table should fail")
		}
	})

	t.Run("InvalidQuery", func(t *testing.T) {
		s := open(t)
		q := CountByCarrier()
		q.Aggs = nil
		if _, err := s.StartQuery(q); err == nil {
			t.Error("invalid query should fail")
		}
	})

	t.Run("CompleteCount", func(t *testing.T) {
		s := open(t)
		s.WorkflowStart()
		defer s.WorkflowEnd()
		h, err := s.StartQuery(CountByCarrier())
		if err != nil {
			t.Fatal(err)
		}
		res := WaitResult(t, h, 30*time.Second)
		if res == nil {
			t.Fatal("no result after completion")
		}
		gt, err := Exact(db, CountByCarrier())
		if err != nil {
			t.Fatal(err)
		}
		tol := 0.0
		if !exactWhenComplete {
			tol = 0.2 // sampling engines: within 20% per carrier
		}
		if err := ResultsEqual(gt, res, tol); err != nil {
			t.Errorf("result mismatch: %v", err)
		}
		// Total count across bins must approximate the table size.
		var total float64
		for _, bv := range res.Bins {
			total += bv.Values[0]
		}
		if math.Abs(total-float64(db.NumRows())) > 0.05*float64(db.NumRows()) {
			t.Errorf("total count %v, want ~%d", total, db.NumRows())
		}
	})

	t.Run("FilteredQuery", func(t *testing.T) {
		s := open(t)
		s.WorkflowStart()
		defer s.WorkflowEnd()
		q := CountByCarrier()
		q.Filter = query.Filter{Predicates: []query.Predicate{
			{Field: "origin_state", Op: query.OpIn, Values: []string{"CA"}},
		}}
		h, err := s.StartQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res := WaitResult(t, h, 30*time.Second)
		if res == nil {
			t.Fatal("no result after completion")
		}
		gt, _ := Exact(db, q)
		var gtTotal, resTotal float64
		for _, bv := range gt.Bins {
			gtTotal += bv.Values[0]
		}
		for _, bv := range res.Bins {
			resTotal += bv.Values[0]
		}
		if math.Abs(resTotal-gtTotal) > 0.1*gtTotal {
			t.Errorf("filtered total %v, want ~%v", resTotal, gtTotal)
		}
	})

	// Consumers assert the one optional interface they need where they
	// need it, so each one the engine has must describe the prepared data
	// on its own.
	t.Run("Capabilities", func(t *testing.T) {
		e := factory()
		if err := e.Prepare(db, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		rows := db.NumRows()
		if wmk, ok := e.(engine.Watermarker); ok {
			if wm := wmk.Watermark(); wm != int64(rows) {
				t.Errorf("prepared watermark %d, want %d", wm, rows)
			}
		}
		if vs, ok := e.(engine.ViewSnapshotter); ok {
			view, perm := vs.SnapshotView()
			if view == nil {
				t.Fatal("SnapshotView after Prepare returned no view")
			}
			if view.NumRows() != rows {
				t.Errorf("SnapshotView after Prepare holds %d rows, want %d", view.NumRows(), rows)
			}
			if len(perm) > rows {
				t.Errorf("SnapshotView permutation covers %d rows of %d", len(perm), rows)
			}
		}
	})

	t.Run("CancelStopsExecution", func(t *testing.T) {
		s := open(t)
		s.WorkflowStart()
		defer s.WorkflowEnd()
		h, err := s.StartQuery(AvgDelayByDistance())
		if err != nil {
			t.Fatal(err)
		}
		h.Cancel()
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled query did not finish")
		}
	})

	// The driver keeps every fetched result until the replay is over and
	// scores it then, so a returned snapshot must never change: not while
	// the query runs on, not on Cancel, not on later snapshots.
	t.Run("SnapshotsImmutable", func(t *testing.T) {
		s := open(t)
		s.WorkflowStart()
		defer s.WorkflowEnd()
		h, err := s.StartQuery(AvgDelayByDistance())
		if err != nil {
			t.Fatal(err)
		}
		// Each kept result beside its canonical binary form at return time.
		var got []*query.Result
		var was [][]byte
		keep := func(res *query.Result) {
			if res != nil {
				got = append(got, res)
				was = append(was, res.AppendBinary(nil))
			}
		}
	poll:
		for range 8 {
			select {
			case <-h.Done():
				break poll
			default:
				keep(h.Snapshot())
				time.Sleep(50 * time.Microsecond)
			}
		}
		final := WaitResult(t, h, 30*time.Second)
		if final == nil {
			t.Fatal("no result after completion")
		}
		keep(final)
		h.Cancel()
		keep(h.Snapshot())
		keep(h.Snapshot())
		for i, res := range got {
			if !bytes.Equal(res.AppendBinary(nil), was[i]) {
				t.Errorf("snapshot %d of %d changed after it was returned", i, len(got))
			}
		}
	})

	t.Run("ConcurrentQueries", func(t *testing.T) {
		s := open(t)
		s.WorkflowStart()
		defer s.WorkflowEnd()
		handles := make([]engine.Handle, 0, 6)
		for i := 0; i < 6; i++ {
			q := CountByCarrier()
			q.VizName = fmt.Sprintf("viz_%d", i)
			h, err := s.StartQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if res := WaitResult(t, h, 30*time.Second); res == nil {
				t.Error("concurrent query returned no result")
			}
		}
	})
}
