package progressive

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// benchRows sizes the concurrent benchmark's fact table well past LLC
// (5 columns ≈ 130 MB at 4M rows) so the permutation-gather baseline pays
// real cache misses, as it would at paper scale.
const benchRows = 1 << 22

var benchDBOnce struct {
	sync.Once
	db *dataset.Database
}

func benchDB(b *testing.B) *dataset.Database {
	b.Helper()
	benchDBOnce.Do(func() { benchDBOnce.db = enginetest.SmallDB(benchRows, 1234) })
	return benchDBOnce.db
}

// benchQueries returns eight distinct-signature dashboard queries — the
// linked-visualization re-query burst the shared scan is built for. All
// signatures differ so the reuse cache cannot collapse them; the comparison
// measures scan architecture, not deduplication.
func benchQueries() []*query.Query {
	qs := make([]*query.Query, 0, 8)
	for i, st := range []string{"CA", "TX", "NY", "FL"} {
		q := enginetest.CountByCarrier()
		q.VizName = fmt.Sprintf("viz_count_%d", i)
		q.Filter = query.Filter{Predicates: []query.Predicate{
			{Field: "origin_state", Op: query.OpIn, Values: []string{st}},
		}}
		qs = append(qs, q)
	}
	for i := 0; i < 4; i++ {
		q := enginetest.AvgDelayByDistance()
		q.VizName = fmt.Sprintf("viz_avg_%d", i)
		q.Filter = query.Filter{Predicates: []query.Predicate{
			{Field: "dep_delay", Op: query.OpRange, Lo: float64(-30 + 10*i), Hi: 120},
		}}
		qs = append(qs, q)
	}
	return qs
}

// BenchmarkProgressiveConcurrent8 times eight concurrent progressive queries
// over the same fact table, run cold (no reuse), to completion: the shared
// scan's makespan when every query is expensive and none can finish early.
//
//   - shared: the engine as shipped — permuted materialization at Prepare and
//     the shared scan's workers claiming blocks for the least-served query.
//     The queries read a block at different times, so they no longer share
//     one pass over memory; internal/engine/README.md, "Benchmarks", has the
//     makespan measured against the one circular cursor that folded every
//     block through all eight states.
//   - independent_gather: the pre-shared-scan architecture, reconstructed on
//     the same kernels — one goroutine per query, each streaming the whole
//     row permutation through GroupState.ScanRows on the original table.
func BenchmarkProgressiveConcurrent8(b *testing.B) {
	db := benchDB(b)
	queries := benchQueries()

	b.Run("shared", func(b *testing.B) {
		e := New(Config{})
		if err := e.Prepare(db, engine.Options{}); err != nil {
			b.Fatal(err)
		}
		sess := e.OpenSession()
		defer sess.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.WorkflowStart() // cold cache: every query scans
			handles := make([]engine.Handle, len(queries))
			for j, q := range queries {
				h, err := sess.StartQuery(q)
				if err != nil {
					b.Fatal(err)
				}
				handles[j] = h
			}
			for _, h := range handles {
				<-h.Done()
			}
		}
		b.StopTimer()
		reportRowRate(b, len(queries))
	})

	b.Run("independent_gather", func(b *testing.B) {
		rng := rand.New(rand.NewSource(engine.Options{}.Normalize().Seed))
		perm := stats.Permutation(rng, db.Fact.NumRows())
		chunk := dataset.BlockRows
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func(q *query.Query) {
					defer wg.Done()
					plan, err := engine.Compile(db, q)
					if err != nil {
						b.Error(err)
						return
					}
					gs := engine.NewGroupState(plan)
					for pos := 0; pos < len(perm); pos += chunk {
						hi := pos + chunk
						if hi > len(perm) {
							hi = len(perm)
						}
						gs.ScanRows(perm[pos:hi])
					}
				}(q)
			}
			wg.Wait()
		}
		b.StopTimer()
		reportRowRate(b, len(queries))
	})
}

func reportRowRate(b *testing.B, numQueries int) {
	b.Helper()
	rows := float64(benchRows) * float64(numQueries) * float64(b.N)
	b.ReportMetric(rows/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkProgressiveFirstSnapshot measures single-query time to the first
// non-empty partial snapshot — the latency the paper's progressive
// interactions live on. Shared-scan execution must not regress it versus the
// old architecture's first gather chunk (the gather_chunk baseline folds one
// permutation chunk and snapshots, which is everything the old engine did
// before its first answer).
func BenchmarkProgressiveFirstSnapshot(b *testing.B) {
	db := benchDB(b)

	b.Run("shared", func(b *testing.B) {
		// Parallelism 1 matches the old architecture's one scan goroutine per
		// query, so the numbers compare first-chunk latency, not worker count.
		e := New(Config{})
		if err := e.Prepare(db, engine.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
		sess := e.OpenSession()
		defer sess.Close()
		q := enginetest.CountByCarrier()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.WorkflowStart()
			h, err := sess.StartQuery(q)
			if err != nil {
				b.Fatal(err)
			}
			for {
				snap := h.Snapshot()
				if snap != nil && snap.RowsSeen > 0 {
					break // first estimate available (complete counts too, on
					// machines that race the poll loop to the full scan)
				}
				select {
				case <-h.Done():
					if snap := h.Snapshot(); snap == nil || snap.RowsSeen == 0 {
						b.Fatal("query finished without a result")
					}
				default:
					// Yield so the scan worker gets the core on single-CPU
					// machines; a hot spin would measure preemption quanta.
					runtime.Gosched()
					continue
				}
				break
			}
			h.Cancel()
			<-h.Done()
		}
	})

	b.Run("gather_chunk", func(b *testing.B) {
		rng := rand.New(rand.NewSource(engine.Options{}.Normalize().Seed))
		perm := stats.Permutation(rng, db.Fact.NumRows())
		chunk := dataset.BlockRows
		q := enginetest.CountByCarrier()
		z := 1.96
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := engine.Compile(db, q)
			if err != nil {
				b.Fatal(err)
			}
			gs := engine.NewGroupState(plan)
			gs.ScanRows(perm[:chunk])
			if snap := gs.SnapshotScaled(int64(chunk), int64(plan.NumRows), int64(plan.NumRows), 0, z); snap.RowsSeen == 0 {
				b.Fatal("no snapshot")
			}
		}
	})
}

// BenchmarkProgressivePrepare records the data-preparation cost of permuted
// materialization (permutation build + column gather), the price paid once
// per dataset for sequential progressive scans.
func BenchmarkProgressivePrepare(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{})
		if err := e.Prepare(db, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// Guard: the benchmarks above assume partial snapshots appear before
// completion on this table size; keep a cheap sanity test so a future chunk
// default change does not silently turn FirstSnapshot into a completion
// benchmark.
func TestBenchTableYieldsPartialSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4M-row table")
	}
	db := enginetest.SmallDB(benchRows/8, 1234)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap := h.Snapshot(); snap != nil && snap.RowsSeen > 0 {
			h.Cancel()
			<-h.Done()
			return
		}
		select {
		case <-h.Done():
			return // completed: also fine, snapshots were available throughout
		default:
		}
	}
	t.Fatal("no snapshot observed")
}

// BenchmarkDrillDown times step 3 of a drill-down chain, p1 → p1∧p2 →
// p1∧p2∧p3, to its final over the 4M-row table: cold, in a session of its
// own, and after steps 1 and 2 ran in the same session and workflow, where
// it reads the rows step 2 recorded and evaluates only p3 (README.md,
// "Recorded selections"). Every iteration opens a fresh session, so neither case
// finds a cached answer; selrows/op is the rows step 3 read from selections.
func BenchmarkDrillDown(b *testing.B) {
	e := New(Config{})
	if err := e.Prepare(benchDB(b), engine.Options{}); err != nil {
		b.Fatal(err)
	}
	run := func(sess engine.Session, q *query.Query) {
		h, err := sess.StartQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		<-h.Done()
	}
	step1 := drillQuery("viz_state", drillP1)
	step2 := drillQuery("viz_state", drillP1, drillP2)
	step3 := drillQuery("viz_state", drillP1, drillP2, drillP3)
	for _, c := range []struct {
		name string
		warm []*query.Query
	}{{"cold", nil}, {"after_steps_1_2", []*query.Query{step1, step2}}} {
		b.Run(c.name, func(b *testing.B) {
			var served int64
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				sess := e.OpenSession()
				sess.WorkflowStart()
				for _, q := range c.warm {
					run(sess, q)
				}
				b.StartTimer()
				run(sess, step3)
				b.StopTimer()
				served += sess.(*session).selectionRows(step3)
				sess.Close()
			}
			b.ReportMetric(float64(served)/float64(b.N), "selrows/op")
		})
	}
}

// BenchmarkBlockAggregates times an unfiltered query to its final over the
// 4M-row table, a 1-D AVG and a 2-D AVG heatmap: cold, on a scanner whose
// block registry is empty (every iteration re-adopts the prepared storage,
// which starts a new scanner), so every whole block is folded and its table
// recorded, and repeated, in a fresh session after the same query ran once,
// where every whole block merges its recorded table (README.md, "Block
// tables"). Neither case finds a cached answer; blockrows/op is the rows
// served from block tables, ns/block the time per block of the table.
func BenchmarkBlockAggregates(b *testing.B) {
	e := New(Config{})
	if err := e.Prepare(benchDB(b), engine.Options{}); err != nil {
		b.Fatal(err)
	}
	db, perm := e.SnapshotView()
	heatmap := &query.Query{VizName: "viz_heat", Table: "flights",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}, {Field: "distance", Kind: dataset.Quantitative, Width: 500}},
		Aggs: []query.Aggregate{{Func: query.Avg, Field: "arr_delay"}}}
	for _, shape := range []struct {
		name string
		q    *query.Query
	}{{"1d", enginetest.AvgDelayByDistance()}, {"2d", heatmap}} {
		run := func() int64 {
			sess := e.OpenSession()
			defer sess.Close()
			h, err := sess.StartQuery(shape.q)
			if err != nil {
				b.Fatal(err)
			}
			<-h.Done()
			return sess.(*session).blockRows(shape.q)
		}
		for _, c := range []struct {
			name string
			cold bool
		}{{"cold", true}, {"repeated", false}} {
			b.Run(shape.name+"_"+c.name, func(b *testing.B) {
				var served int64
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					if err := e.PrepareReordered(db, perm, engine.Options{}); err != nil {
						b.Fatal(err)
					}
					if !c.cold {
						run()
					}
					b.StartTimer()
					served += run()
					b.StopTimer()
				}
				b.ReportMetric(float64(served)/float64(b.N), "blockrows/op")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchRows/dataset.BlockRows), "ns/block")
			})
		}
	}
}
