package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// opRec is one timed query. Times are offsets from due.
type opRec struct {
	id      int64
	sess    int
	rung    int // explore-served: rung of the ladder, -1 in the closed loop
	q       *query.Query
	due     time.Time
	sampled bool // results are kept for the checks

	h        engine.Handle
	seq      int           // position among its session's queries
	issueLag time.Duration // open loop: how late the generator issued it
	err      error         // StartQuery failed

	// Written by the goroutine that samples the screen at the time
	// requirement, read after the operation is done.
	trTaken     bool
	trLate      bool // sampled more than maxOvershoot after the requirement
	trOvershoot time.Duration
	trProgress  float64
	trUsable    bool
	trRes       *query.Result
	trStale     int64         // ingest-mixed: acked rows the snapshot did not reflect
	first       time.Duration // due → first usable snapshot; 0 if not polled

	// Written by the operation's waiter goroutine.
	done     atomic.Bool
	timedOut bool
	final    time.Duration // due → exact final in hand
	complete bool
	finalRes *query.Result
	rejected bool
	shed     bool
	degraded bool
}

// missed reports whether the analyst had nothing usable on screen when the
// time requirement expired.
func (o *opRec) missed() bool {
	return o.err != nil || o.timedOut || o.rejected || o.shed || !o.trUsable
}

// hardTimeout bounds how long a loop waits for one interaction's finals.
const hardTimeout = 20 * time.Second

// pollSlice is how long a loop sleeps between looks at its queries in
// flight: whether all have finished, and (where it is measured) whether one
// has its first usable snapshot yet.
const pollSlice = 250 * time.Microsecond

// sleepUntil sleeps on the calling thread until t. The loops do not use the
// runtime's timers: with every P busy scanning, a Go timer fires up to a
// scheduler quantum (10 ms) late, which at a 4 ms time requirement would
// sample the analyst's screen at the wrong moment. A thread asleep in the
// kernel is woken by the kernel's timer and, the harness having one P more
// than the machine has cores (see main), finds a P to run on.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func sleepFor(d time.Duration) { sleepUntil(time.Now().Add(d)) }

// loop drives one stage with one workload's inputs.
type loop struct {
	st     *stage
	stride int64 // every stride-th query is sampled
	nextID atomic.Int64

	// issued[s] lists, per session of the top seam, the operation of each
	// StartQuery in order (-1 for warm-up queries), so spans recorded by
	// decorators can be attributed.
	issued [][]int64
	sigs   [][]uint64

	acked atomic.Int64 // ingest-mixed: the acknowledged watermark
}

func newLoop(st *stage, sessions int, stride int64) *loop {
	return &loop{st: st, stride: stride, issued: make([][]int64, sessions), sigs: make([][]uint64, sessions)}
}

func (l *loop) note(sess int, id int64, q *query.Query) {
	l.issued[sess] = append(l.issued[sess], id)
	if l.st.rec != nil {
		l.sigs[sess] = append(l.sigs[sess], sigHash(q))
	}
}

// rawHandle strips the harness's own decorator, to reach what the client
// library reports about the query.
func rawHandle(h engine.Handle) engine.Handle {
	if th, ok := h.(*tracedHandle); ok {
		return th.Handle
	}
	return h
}

// await is an operation's waiter: it blocks until the final is ready,
// fetches it as a front end would, and stamps the time.
func (l *loop) await(o *opRec, wg *sync.WaitGroup) {
	defer wg.Done()
	select {
	case <-o.h.Done():
	case <-time.After(hardTimeout):
		o.h.Cancel()
		o.timedOut = true
		o.done.Store(true)
		return
	}
	res := o.h.Snapshot()
	o.final = time.Since(o.due)
	raw := rawHandle(o.h)
	if r, ok := raw.(interface{ Rejected() (bool, time.Duration) }); ok {
		o.rejected, _ = r.Rejected()
	}
	if s, ok := raw.(interface{ Shed() bool }); ok {
		o.shed = s.Shed()
	}
	if res != nil {
		o.complete = res.Complete
		o.degraded = !res.Coverage.Full()
		if o.sampled {
			o.finalRes = res
		}
	}
	o.done.Store(true)
	if l.st.rec != nil && o.id >= 0 && traced(o.seq) {
		l.st.rec.add("query", o.id, o.due, o.due.Add(o.final))
	}
}

// sampleTR records what is on the analyst's screen now, the time
// requirement having expired at deadline. However late the loop got to look,
// what it saw is what counts: a late look is flagged, not left out.
func (l *loop) sampleTR(o *opRec, deadline time.Time) {
	if o.h == nil || o.done.Load() {
		return // a final is in hand; settle reads when it came
	}
	looked := time.Now()
	res := o.h.Snapshot()
	o.trTaken = true
	o.trOvershoot = looked.Sub(deadline)
	o.trLate = o.trOvershoot > maxOvershoot(l.st.tr)
	if res != nil {
		o.trUsable = true
		o.trProgress = res.Progress()
		if o.first == 0 {
			o.first = time.Since(o.due)
		}
		if a := l.acked.Load(); a > 0 && res.Watermark > 0 && a > res.Watermark {
			o.trStale = a - res.Watermark
		}
		if o.sampled {
			o.trRes = res
		}
	}
}

// settle fills the time-requirement sample of an operation the loop did not
// sample because its final was in hand when it looked: the final was on
// screen. A final that came after the requirement means the loop looked
// later still — by at least the difference, which is the look's overshoot.
func (l *loop) settle(o *opRec) {
	if o.trTaken || o.err != nil || o.timedOut {
		return
	}
	o.trUsable = o.complete || o.finalRes != nil
	o.trProgress = 1
	o.trRes = o.finalRes
	if o.first == 0 {
		o.first = o.final
	}
	if over := o.final - l.st.tr; over > 0 {
		o.trTaken = true
		o.trOvershoot = over
		o.trLate = over > maxOvershoot(l.st.tr)
	}
}

func (l *loop) start(sess engine.Session, s int, q *query.Query, due time.Time, timed bool) *opRec {
	o := &opRec{id: -1, sess: s, rung: -1, q: q, due: due}
	if timed {
		o.id = l.nextID.Add(1) - 1
		o.sampled = o.id%l.stride == 0
	}
	o.seq = len(l.issued[s])
	l.note(s, o.id, q)
	o.h, o.err = sess.StartQuery(q)
	return o
}

func tell(sess engine.Session, st step) {
	if st.newFlow {
		sess.WorkflowStart()
	}
	if st.link != nil {
		sess.LinkVizs(st.link[0], st.link[1])
	}
	if st.discard != "" {
		sess.DeleteViz(st.discard)
	}
}

// interact runs one closed-loop interaction: start its queries together,
// sample each at the time requirement, wait for every exact final.
func (l *loop) interact(sess engine.Session, s int, st step, pollFirst, timed bool) []*opRec {
	tell(sess, st)
	if len(st.queries) == 0 {
		return nil
	}
	due := time.Now()
	deadline := due.Add(l.st.tr)
	ops := make([]*opRec, len(st.queries))
	var wg sync.WaitGroup
	for i, q := range st.queries {
		o := l.start(sess, s, q, due, timed)
		ops[i] = o
		if o.err == nil {
			wg.Add(1)
			go l.await(o, &wg)
		}
	}
	// Until the requirement expires, look in on the queries every slice:
	// an interaction whose finals are all in hand is over.
	inFlight := func() bool {
		for _, o := range ops {
			if o.err == nil && !o.done.Load() {
				return true
			}
		}
		return false
	}
	for inFlight() {
		now := time.Now()
		if !now.Before(deadline) {
			for _, o := range ops {
				l.sampleTR(o, deadline)
			}
			break
		}
		if pollFirst {
			// The merged handle answers nil until every partition has
			// reported, so looking for the first usable snapshot renders
			// nothing twice.
			for _, o := range ops {
				if o.err == nil && o.first == 0 && !o.done.Load() && o.h.Snapshot() != nil {
					o.first = time.Since(o.due)
				}
			}
		}
		next := now.Add(pollSlice)
		if next.After(deadline) {
			next = deadline
		}
		sleepUntil(next)
	}
	wg.Wait()
	for _, o := range ops {
		l.settle(o)
	}
	if st.endFlow {
		sess.WorkflowEnd()
	}
	return ops
}

// warm replays a script's warm-up workflow, untimed.
func (l *loop) warm(sess engine.Session, s int, sc script) {
	for _, st := range sc.warm {
		l.interact(sess, s, st, false, false)
	}
}

// analyst is the closed loop: one analyst replaying a script until stop,
// thinking between interactions.
func (l *loop) analyst(sess engine.Session, s int, sc script, stop time.Time, pollFirst bool) []*opRec {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out []*opRec
	for i := 0; time.Now().Before(stop); i++ {
		st := sc.steps[i%len(sc.steps)]
		out = append(out, l.interact(sess, s, st, pollFirst, true)...)
		sleepFor(l.st.think)
	}
	return out
}

// openLoop is explore-served's generator: one dispatcher issues every
// arrival at its due time on its connection whether or not earlier queries
// have answered, and one observer samples each query's first usable
// snapshot and its screen at the time requirement.
func (l *loop) openLoop(sessions []engine.Session, scripts []script, arrivals []arrival, t0 time.Time) []*opRec {
	// Start half way through each script, at a workflow boundary: the closed
	// loop before the ladder replayed the first half.
	start := make([]int, len(scripts))
	for c, sc := range scripts {
		for start[c] = len(sc.steps) / 2; !sc.steps[start[c]].newFlow; start[c]++ {
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var (
		ops     []*opRec
		wg      sync.WaitGroup
		cursor  = start
		started = make(chan *opRec, 1024) // dispatcher → observer; never the bottleneck at ≤1k queries/s
		obsDone = make(chan struct{})
	)
	go func() {
		defer close(obsDone)
		l.observe(started)
	}()
	for _, a := range arrivals {
		// The next interaction of this connection that has queries; the
		// bookkeeping steps before it are told along the way.
		sc := scripts[a.conn]
		var st step
		for {
			st = sc.steps[cursor[a.conn]%len(sc.steps)]
			cursor[a.conn]++
			if len(st.queries) > 0 {
				break
			}
			tell(sessions[a.conn], st)
		}
		due := t0.Add(a.at)
		sleepUntil(due)
		lag := time.Since(due)
		tell(sessions[a.conn], st)
		for _, q := range st.queries {
			o := l.start(sessions[a.conn], a.conn, q, due, true)
			o.rung = a.rung
			o.issueLag = lag
			ops = append(ops, o)
			if o.err == nil {
				wg.Add(1)
				go l.await(o, &wg)
				started <- o
			}
		}
		if st.endFlow {
			sessions[a.conn].WorkflowEnd()
		}
	}
	close(started)
	<-obsDone
	wg.Wait()
	for _, o := range ops {
		l.settle(o)
	}
	return ops
}

// observe polls the queries in flight: the first usable snapshot of each,
// then its screen when the time requirement expires.
func (l *loop) observe(started <-chan *opRec) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var pending []*opRec
	for open := true; open || len(pending) > 0; {
		// Take what the dispatcher has started; block only when idle.
		for open {
			if len(pending) == 0 {
				o, ok := <-started
				if !ok {
					return
				}
				pending = append(pending, o)
				continue
			}
			select {
			case o, ok := <-started:
				if ok {
					pending = append(pending, o)
				} else {
					open = false
				}
				continue
			default:
			}
			break
		}
		now := time.Now()
		keep := pending[:0]
		for _, o := range pending {
			if o.done.Load() {
				continue
			}
			if o.first == 0 && o.h.Snapshot() != nil {
				o.first = now.Sub(o.due)
			}
			if deadline := o.due.Add(l.st.tr); !now.Before(deadline) {
				l.sampleTR(o, deadline)
				continue
			}
			keep = append(keep, o)
		}
		pending = keep
		sleepFor(pollSlice)
	}
}

// batchRec is one timed ingest batch.
type batchRec struct {
	id        int64
	due       time.Time
	ack       time.Duration // due → acknowledged
	issueLag  time.Duration
	rows      int
	watermark int64
	err       error
}

// writer is ingest-mixed's open-loop writer: one batch every 1/rate
// seconds, acknowledged when the Applier returns — validated, logged with an
// fsync, absorbed by the engine.
func (l *loop) writer(batches []*ingest.Batch, t0 time.Time, stop time.Time) []*batchRec {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	gap := time.Second / batchRate
	var out []*batchRec
	for i, b := range batches {
		due := t0.Add(time.Duration(i) * gap)
		if !due.Before(stop) {
			break
		}
		sleepUntil(due)
		r := &batchRec{id: batchBase + int64(i), due: due, rows: b.NumRows(), issueLag: time.Since(due)}
		if l.st.ing != nil {
			l.st.ing.cur.Store(r.id)
		}
		t1 := time.Now()
		r.watermark, r.err = l.st.applier.Apply(b)
		t2 := time.Now()
		r.ack = t2.Sub(due)
		if r.err == nil {
			l.acked.Store(r.watermark)
		}
		if l.st.rec != nil {
			l.st.rec.add("batch", r.id, due, t2)
			l.st.rec.add("writer.backlog", r.id, due, t1)
			l.st.rec.add("ingest.apply", r.id, t1, t2)
		}
		out = append(out, r)
	}
	return out
}
