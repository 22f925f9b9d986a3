package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	p        params
	seed     int64
	window   time.Duration
	trace    bool
	outDir   string
}

// runResult is what one run measured. values holds every metric the run
// could compute, by name; which of them a caller prints depends on whether
// the run was traced.
type runResult struct {
	workload  string
	traced    bool
	digest    string
	values    map[string]float64
	counts    map[string]int // sample count behind a metric, where it has one
	attempted int
	failed    int
	tracePath string
	// wrong lists failed correctness checks, broken the generator's broken
	// promises (it ran late); a run with either is not a measurement.
	wrong, broken []string
}

func (r *runResult) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	if n > 0 {
		r.counts[name] = n
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *runResult) invalid(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

// Generator-honesty limits: beyond them the numbers describe the harness.
// A rung of the ladder counts as met only if the generator issued its tail
// operation (see summarizeLadder) less than maxSchedLagTail late, and a run
// whose generator is late at the median on the rungs the server keeps up
// with is not a measurement.
// A screen looked at more than a quarter of the time requirement late counts
// as late. What it showed still counts — it is what the analyst had when
// their front end got a core — but a run with more than maxLateShare of them
// is not a measurement: on this box about an eighth of explore-inproc's and
// ingest-mixed's looks are late (README.md, "Sampling the screen at TR").
const (
	maxSchedLagTail = 5 * time.Millisecond
	maxSchedLagP50  = time.Millisecond
	maxLateShare    = 0.25
)

func maxOvershoot(tr time.Duration) time.Duration { return tr / 4 }

func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{workload: cfg.workload, traced: cfg.trace, values: make(map[string]float64), counts: make(map[string]int)}
	workdir := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	st, err := setUp(cfg, res, workdir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	in, err := buildInputs(cfg, st.db.Fact)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	res.digest = in.digest

	w := drive(cfg, st, in)
	res.set("peak_rss_mb", w.peakRSS, 0)
	res.set("mean_rss_mb", w.meanRSS, 0)
	if n := float64(len(w.ops)); n > 0 {
		res.set("runtime.allocs_per_query", float64(w.after.Mallocs-w.before.Mallocs)/n, 0)
		res.set("runtime.alloc_bytes_per_query", float64(w.after.TotalAlloc-w.before.TotalAlloc)/n, 0)
	}
	res.set("runtime.gc_pause_ms_total", float64(w.after.PauseTotalNs-w.before.PauseTotalNs)/1e6, 0)
	res.set("runtime.cpu_util", w.cpu.Seconds()/(w.elapsed.Seconds()*float64(runtime.NumCPU())), 0)
	res.set("sharedscan.consumers_peak", float64(w.peakConsumers), 0)

	// Quiesce: nothing may stay attached to a shared scan.
	leaked := st.leakedConsumers()
	if leaked != 0 {
		res.fail("%d shared-scan consumers still attached after the window", leaked)
	}
	res.set("sharedscan.leaked_consumers", float64(leaked), 0)

	// Ground truth: the base table plus, on ingest-mixed, what was
	// acknowledged. Then close, reopen, recover, replay.
	var acked []*ingest.Batch
	for i, b := range w.batches {
		if b.err != nil {
			res.fail("batch %d: %v", i, b.err)
			continue
		}
		acked = append(acked, in.batches[i])
	}
	tr, err := newTruth(st.db, acked)
	if err != nil {
		return nil, fmt.Errorf("ground truth: %w", err)
	}
	if cfg.workload == wlIngest {
		if err := recoverAndCheck(st, res, tr, w.ackedWatermark); err != nil {
			return nil, err
		}
	}

	// Correctness of the sampled finals, outside the window.
	wrong, reasons, ql := checkOps(w.ops, tr, cfg.sample(), cfg.trace)
	for _, why := range reasons {
		res.fail("wrong final: %s", why)
	}
	res.set("harness.gt_s", tr.spent.Seconds(), 0)
	res.set("metrics.evaluate_us_per_query", ql.evalUS.mean(), len(ql.evalUS))
	res.set("mre_at_tr_p50", ql.mre.pct(0.5), len(ql.mre))
	res.set("missing_bins_at_tr", ql.missing.mean(), len(ql.missing))

	summarize(cfg, st, res, in, w, wrong)
	if cfg.trace {
		if err := traceReport(cfg, st, res, w); err != nil {
			return nil, err
		}
		layerTimings(cfg, st, res, w.ops, acked)
	}
	return res, nil
}

// sample is how many queries of a run keep their results for the checks.
func (cfg runConfig) sample() int {
	if cfg.trace && cfg.p.qualitySample > cfg.p.checkSample {
		return cfg.p.qualitySample
	}
	return cfg.p.checkSample
}

// setUp sets the workload's system up — several times over in an untraced
// run, which reports the median as setup_s — and returns the last stage.
func setUp(cfg runConfig, res *runResult, workdir string) (*stage, error) {
	var rec *recorder
	repeats := cfg.p.setupRepeats
	if cfg.trace {
		rec = newRecorder()
		repeats = 1
	}
	var st *stage
	var setups series
	for i := 0; i < repeats; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = buildStage(cfg.workload, cfg.p, cfg.seed, rec, workdir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", setups.pct(0.5), len(setups))
	for name, v := range st.timings {
		res.set(name, v, 0)
	}
	if b := st.timings["datagen.build_s"]; b > 0 {
		res.set("datagen.rows_per_s", float64(st.db.Fact.NumRows())/b, 0)
	}
	return st, nil
}

// buildInputs generates everything the program is handed during the run,
// from the seed alone.
func buildInputs(cfg runConfig, tbl *dataset.Table) (inputs, error) {
	dg := newDigester()
	in := inputs{closed: cfg.window}
	var err error
	if in.scripts, err = buildScripts(tbl, cfg.p, cfg.seed, analysts, dg); err != nil {
		return in, err
	}
	switch cfg.workload {
	case wlServed:
		in.closed = time.Duration(float64(cfg.window) * closedShare)
		in.rungs, in.arrivals = buildLadder(cfg.seed, cfg.window-in.closed, analysts, dg)
	case wlIngest:
		n := int(cfg.window.Seconds()*batchRate) + 1
		if in.batches, err = buildBatches(cfg.p, cfg.seed, n, dg); err != nil {
			return in, err
		}
	}
	in.digest = dg.hex()
	return in, nil
}

// window is what driving a stage for one window produced.
type window struct {
	ops     []*opRec // in due order
	batches []*batchRec
	// issued and sigs map (session, sequence number) to the operation and
	// its query's sigHash, for attributing spans.
	issued [][]int64
	sigs   [][]uint64

	t0, ladderT0   time.Time
	elapsed, cpu   time.Duration
	meanRSS        float64
	peakRSS        float64
	before, after  runtime.MemStats
	peakConsumers  int
	ackedWatermark int64
}

// drive opens the sessions, warms them up and runs the window.
func drive(cfg runConfig, st *stage, in inputs) *window {
	// Sessions are opened and warmed one after the other so that every
	// decorator numbers them the same way.
	n := analysts
	if cfg.workload == wlIngest {
		n = 1 // the writer is the second load-issuing thread
	}
	sessions := make([]engine.Session, n)
	for i := range sessions {
		sessions[i] = st.top.OpenSession()
		defer sessions[i].Close()
		if cfg.workload == wlServed {
			setDeadline(sessions[i], st.tr)
		}
	}
	lp := newLoop(st, n, strideFor(in, st.think, cfg.sample()))
	for i, s := range sessions {
		lp.warm(s, i, in.scripts[i])
	}

	w := &window{}
	debug.FreeOSMemory() // collect, and hand set-up's garbage back, so the window's memory is its own
	runtime.ReadMemStats(&w.before)
	cpu0 := cpuTime()
	stopRSS := sampleRSS()
	stopSampler := st.sampleScans(cfg.trace)
	w.t0 = time.Now()
	w.ladderT0 = w.t0
	stop := w.t0.Add(in.closed)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	analysts := func(pollFirst bool) {
		for i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got := lp.analyst(sessions[i], i, in.scripts[i], stop, pollFirst)
				mu.Lock()
				w.ops = append(w.ops, got...)
				mu.Unlock()
			}(i)
		}
	}
	switch cfg.workload {
	case wlServed:
		// The closed loop first, on a quiet server; then the ladder, whose
		// top rungs leave the server with a backlog.
		analysts(true)
		wg.Wait()
		w.ladderT0 = time.Now()
		w.ops = append(w.ops, lp.openLoop(sessions, in.scripts, in.arrivals, w.ladderT0)...)
	case wlIngest:
		wg.Add(1)
		go func() { defer wg.Done(); w.batches = lp.writer(in.batches, w.t0, stop) }()
		analysts(false)
		wg.Wait()
	default:
		analysts(cfg.workload == wlSharded)
		wg.Wait()
	}
	w.elapsed = time.Since(w.t0)
	w.cpu = cpuTime() - cpu0
	w.meanRSS = stopRSS()
	w.peakRSS = peakRSS()
	runtime.ReadMemStats(&w.after)
	w.peakConsumers = stopSampler()
	sort.SliceStable(w.ops, func(a, b int) bool { return w.ops[a].due.Before(w.ops[b].due) })
	w.issued, w.sigs = lp.issued, lp.sigs
	w.ackedWatermark = lp.acked.Load()
	return w
}

// strideFor picks the sampling stride from the number of queries the
// window will hold, estimated from the inputs.
func strideFor(in inputs, think time.Duration, sample int) int64 {
	perStep, steps := 0.0, 0
	for _, sc := range in.scripts {
		for _, st := range sc.steps {
			perStep += float64(len(st.queries))
			steps++
		}
	}
	if steps > 0 {
		perStep /= float64(steps)
	}
	// A closed-loop interaction costs at least the think time plus a few
	// milliseconds of query; guessing low only samples more.
	per := think + 3*time.Millisecond
	expected := in.closed.Seconds() / per.Seconds() * perStep * analysts
	expected += float64(len(in.arrivals)) * math.Max(perStep, 1)
	if sample <= 0 || expected <= float64(sample) {
		return 1
	}
	return int64(expected/float64(sample)/2) + 1
}

func setDeadline(sess engine.Session, d time.Duration) {
	if ts, ok := sess.(*tracedSession); ok {
		sess = ts.Session
	}
	if dl, ok := sess.(interface{ SetQueryDeadline(time.Duration) }); ok {
		dl.SetQueryDeadline(d)
	}
}

// sampleScans, in a traced run, samples how many consumers ride the shared
// scans and returns a stop function that reports the peak.
func (s *stage) sampleScans(on bool) (stop func() int) {
	if !on {
		return func() int { return 0 }
	}
	done := make(chan struct{})
	finished := make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				finished <- peak
				return
			case <-tick.C:
				n := 0
				for _, e := range s.engines {
					n += e.ActiveScanConsumers()
				}
				if n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int { close(done); return <-finished }
}

// countQuery is the recovery check's probe: every row counts once, so a lost
// or doubled batch cannot hide.
func countQuery(db *dataset.Database) *query.Query {
	return &query.Query{
		VizName: "recovered_count", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// recoverAndCheck closes ingest-mixed's store, reopens the directory, and
// brings a fresh engine back to serving the way a restarted server does:
// load the newest checkpoint, replay the log's tail. The recovered
// watermark must be the acknowledged one, and a COUNT(*) at it must be, bit
// for bit, a cold scan of the base table plus the acknowledged batches.
func recoverAndCheck(st *stage, res *runResult, tr *truth, ackedWM int64) error {
	if err := st.stopDurable(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}

	t0 := time.Now()
	store, err := durable.Open(filepath.Join(st.dataDir, "store"), st.durableOptions())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer store.Close()
	rcv, err := store.Recover()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if rcv.Checkpoint == nil {
		return fmt.Errorf("recover: no checkpoint in a bootstrapped directory")
	}
	loaded := time.Now()
	eng := progressive.New(progressive.Config{})
	if err := eng.PrepareReordered(rcv.Checkpoint.DB, rcv.Checkpoint.Perm, engineOptions(st.seed)); err != nil {
		return fmt.Errorf("recover: warm prepare: %w", err)
	}
	ap := ingest.NewApplier(rcv.Checkpoint.DB, eng)
	for _, b := range rcv.Batches {
		if _, err := ap.Apply(b); err != nil {
			return fmt.Errorf("recover: replay: %w", err)
		}
	}
	serving := time.Now()
	res.set("recover_s", serving.Sub(t0).Seconds(), 0)
	res.set("durable.recover_load_s", loaded.Sub(t0).Seconds(), 0)
	res.set("durable.wal_replay_s", serving.Sub(loaded).Seconds(), len(rcv.Batches))

	if got := eng.Watermark(); got != ackedWM {
		res.fail("recovered watermark %d, acknowledged %d", got, ackedWM)
		return nil
	}
	q := countQuery(st.db)
	want, err := tr.at(q, ackedWM)
	if err != nil {
		return err
	}
	sess := eng.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(q)
	if err != nil {
		return err
	}
	select {
	case <-h.Done():
	case <-time.After(hardTimeout):
		res.fail("recovered engine did not answer the count query")
		return nil
	}
	if err := sameResult(q, h.Snapshot(), want); err != nil {
		res.fail("recovered count differs from a cold scan: %v", err)
	}
	return nil
}
