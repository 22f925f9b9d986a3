package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/engine"
	"idebench/internal/query"
)

// span is one timed call across a layer boundary, recorded by the harness's
// own decorators. Name is "<layer>.<what>"; Q is the id of the query or batch
// that caused it (the spans of one operation share it); Parent is the index
// in the written file of the narrowest span of the same operation that
// contains this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Q      int64  `json:"q"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`

	// sess/seq locate a span recorded below a network hop, where the
	// operation id is unknown: the seq-th query of the sess-th session of
	// the decorated engine. resolve() turns them into Q.
	sess, seq int
	hop       string
	sig       uint64 // sigHash of the query, on start spans
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the window has closed.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	frozen bool // set once the window is over; later spans are dropped
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) rel(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(name string, q int64, start, end time.Time) {
	r.put(span{Name: name, Q: q, Start: r.rel(start), End: r.rel(end)})
}

func (r *recorder) put(s span) {
	r.mu.Lock()
	if !r.frozen {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// freeze ends recording: the decorators' goroutines may still be running
// when the report is made, and must not append under it.
func (r *recorder) freeze() {
	r.mu.Lock()
	r.frozen = true
	r.mu.Unlock()
}

func (r *recorder) addHop(hop, name string, sess, seq int, sig uint64, start, end time.Time) {
	r.put(span{Name: name, Q: -1, Start: r.rel(start), End: r.rel(end), hop: hop, sess: sess, seq: seq, sig: sig})
}

// traced reports whether the seq-th query of a session records spans. Half
// of them do: the untraced half of the same window, interleaved with the
// traced half, is what harness.trace_overhead_pct compares against. The
// choice is a hash of seq, not its parity: an interaction's second query
// always finishes after its first, and parity would put the second queries
// of two-query interactions all in one half.
func traced(seq int) bool { return uint32(seq)*2654435761&(1<<16) != 0 }

// resolve gives every span its operation id. lookup maps (hop, session,
// seq) of a decorated engine to the operation and its sigHash; a start span
// whose query is not the operation's counts as a mismatch, and a trace with
// mismatches attributes time to the wrong queries.
func (r *recorder) resolve(lookup func(hop string, sess, seq int) (q int64, sig uint64)) (mismatches int) {
	for i := range r.spans {
		s := &r.spans[i]
		if s.hop == "" {
			continue
		}
		q, sig := lookup(s.hop, s.sess, s.seq)
		s.Q = q
		if s.sig != 0 && q >= 0 && sig != s.sig {
			mismatches++
		}
	}
	return mismatches
}

// spanRef names a span of an operation by the decorator that recorded it.
type spanRef struct{ hop, name string }

// rootRef is the harness's own span of a whole operation.
var rootRef = spanRef{name: "query"}

// plainParents gives the parent of spans recorded without a decorator.
var plainParents = map[string]spanRef{
	"writer.backlog":     {name: "batch"},
	"ingest.apply":       {name: "batch"},
	"durable.log_batch":  {name: "ingest.apply"},
	"progressive.append": {name: "ingest.apply"},
}

// link assigns every span its parent — the span that caused it, known from
// where its decorator sits, not guessed from timestamps — and returns, per
// span, its self time: its duration inside its parent minus the part of that
// its children cover (children may overlap, as parallel backends do).
func (r *recorder) link(seams map[string]seam) []time.Duration {
	type key struct {
		q   int64
		ref spanRef
	}
	first := make(map[key]int)
	for i, s := range r.spans {
		r.spans[i].Parent = -1
		k := key{s.Q, spanRef{s.hop, s.Name}}
		if _, ok := first[k]; !ok && s.Q >= 0 {
			first[k] = i
		}
	}
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Q < 0 {
			continue
		}
		var parent spanRef
		if s.hop == "" {
			p, ok := plainParents[s.Name]
			if !ok {
				continue // a root
			}
			parent = p
		} else {
			sm := seams[s.hop]
			switch s.Name {
			case sm.start:
				parent = sm.startUnder
			case sm.run:
				parent = sm.runUnder
			default:
				// A snapshot or partial taken while the seam's run span
				// lasted is time inside it; one taken after it ended (the
				// fetch of the final) follows it under the same cause.
				parent = sm.runUnder
				run := spanRef{s.hop, sm.run}
				if p, ok := first[key{s.Q, run}]; ok && s.Start < r.spans[p].End {
					parent = run
				}
			}
		}
		if p, ok := first[key{s.Q, parent}]; ok {
			r.spans[i].Parent = p
			children[p] = append(children[p], i)
		}
	}
	// within is the part of a span inside the span that caused it (and that
	// one inside its own cause): a decorator's goroutine can stamp a query's
	// end after the loop had its final in hand, and what lies beyond an
	// operation's end is not part of the operation's time.
	type interval struct{ lo, hi int64 }
	clipped := make(map[int]interval, len(r.spans))
	var within func(i int) interval
	within = func(i int) interval {
		if iv, ok := clipped[i]; ok {
			return iv
		}
		iv := interval{r.spans[i].Start, r.spans[i].End}
		if p := r.spans[i].Parent; p >= 0 {
			piv := within(p)
			iv.lo, iv.hi = max(iv.lo, piv.lo), min(iv.hi, piv.hi)
			iv.hi = max(iv.hi, iv.lo)
		}
		clipped[i] = iv
		return iv
	}
	self := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		iv := within(i)
		self[i] = time.Duration(iv.hi - iv.lo)
	}
	for p, cs := range children {
		sort.Slice(cs, func(a, b int) bool { return r.spans[cs[a]].Start < r.spans[cs[b]].Start })
		var covered int64
		hi := within(p).lo
		for _, c := range cs {
			iv := within(c)
			if iv.lo < hi {
				iv.lo = hi
			}
			if iv.hi > iv.lo {
				covered += iv.hi - iv.lo
				hi = iv.hi
			}
		}
		self[p] -= time.Duration(covered)
	}
	return self
}

// write dumps the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seam names the spans one decorator records; an empty name records none.
type seam struct {
	hop                       string // which decorator, for resolve
	start, snap, partial, run string
	// startUnder and runUnder are the spans that cause this seam's start and
	// run spans: the operation's root for the seam the loop drives, the
	// enclosing decorator's spans below it. Snapshot and partial spans hang
	// under the seam's own run span while it lasts and under runUnder after,
	// so the spans of one parent do not overlap (except across parallel
	// backends) and self times add up to the operation's time.
	startUnder, runUnder spanRef
}

// tracedEngine decorates an engine.Engine at one seam (under the driver
// loop, under server.New, around a coordinator backend). It changes no
// argument and no result; it only reads the clock around each call.
type tracedEngine struct {
	engine.Engine
	rec  *recorder
	seam seam

	mu       sync.Mutex
	sessions int
	// firstSnap collects, per traced query, StartQuery-return to the first
	// non-nil snapshot or partial any caller of the handle saw.
	firstSnap map[[2]int]time.Duration
}

func newTracedEngine(inner engine.Engine, rec *recorder, sm seam) *tracedEngine {
	return &tracedEngine{Engine: inner, rec: rec, seam: sm, firstSnap: make(map[[2]int]time.Duration)}
}

// The optional capabilities the serving layer and the coordinator look for.
func (t *tracedEngine) Watermark() int64 {
	if w, ok := t.Engine.(engine.Watermarker); ok {
		return w.Watermark()
	}
	return 0
}

func (t *tracedEngine) ActiveScanConsumers() int {
	if o, ok := t.Engine.(engine.ScanObserver); ok {
		return o.ActiveScanConsumers()
	}
	return 0
}

// OpenSession numbers sessions in the order they are opened. The engine's
// own StartQuery (the default session) is passed through untimed: the
// harness and the serving layer always open sessions.
func (t *tracedEngine) OpenSession() engine.Session {
	inner := t.Engine.OpenSession()
	t.mu.Lock()
	idx := t.sessions
	t.sessions++
	t.mu.Unlock()
	return &tracedSession{Session: inner, eng: t, idx: idx}
}

type tracedSession struct {
	engine.Session
	eng *tracedEngine
	idx int
	seq int // queries started; a session is used from one goroutine
}

func (s *tracedSession) StartQuery(q *query.Query) (engine.Handle, error) {
	seq := s.seq
	s.seq++
	if !traced(seq) {
		return s.Session.StartQuery(q)
	}
	t := s.eng
	t0 := time.Now()
	h, err := s.Session.StartQuery(q)
	t1 := time.Now()
	t.rec.addHop(t.seam.hop, t.seam.start, s.idx, seq, sigHash(q), t0, t1)
	if err != nil {
		return nil, err
	}
	if t.seam.run != "" {
		go func() {
			<-h.Done()
			t.rec.addHop(t.seam.hop, t.seam.run, s.idx, seq, 0, t1, time.Now())
		}()
	}
	return &tracedHandle{Handle: h, s: s, seq: seq, started: t1}, nil
}

type tracedHandle struct {
	engine.Handle
	s       *tracedSession
	seq     int
	started time.Time
	seen    atomic.Bool
}

// firstSnaps returns a copy of the first-snapshot times collected so far.
func (t *tracedEngine) firstSnaps() map[[2]int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[[2]int]time.Duration, len(t.firstSnap))
	for k, d := range t.firstSnap {
		out[k] = d
	}
	return out
}

func (h *tracedHandle) sawFirst(now time.Time) {
	if h.seen.CompareAndSwap(false, true) {
		t := h.s.eng
		t.mu.Lock()
		t.firstSnap[[2]int{h.s.idx, h.seq}] = now.Sub(h.started)
		t.mu.Unlock()
	}
}

func (h *tracedHandle) Snapshot() *query.Result {
	t := h.s.eng
	t0 := time.Now()
	res := h.Handle.Snapshot()
	if res != nil {
		t1 := time.Now()
		if t.seam.snap != "" {
			t.rec.addHop(t.seam.hop, t.seam.snap, h.s.idx, h.seq, 0, t0, t1)
		}
		h.sawFirst(t1)
	}
	return res
}

// PartialSnapshot keeps the scatter-gather capability of the wrapped handle.
func (h *tracedHandle) PartialSnapshot() *engine.Partial {
	ps, ok := h.Handle.(engine.PartialSnapshotter)
	if !ok {
		return nil
	}
	t := h.s.eng
	t0 := time.Now()
	p := ps.PartialSnapshot()
	if p != nil {
		t1 := time.Now()
		if t.seam.partial != "" {
			t.rec.addHop(t.seam.hop, t.seam.partial, h.s.idx, h.seq, 0, t0, t1)
		}
		h.sawFirst(t1)
	}
	return p
}

// sigHash identifies a query's semantics in 64 bits, so that a span recorded
// below a hop can be checked against the operation it is attributed to.
func sigHash(q *query.Query) uint64 {
	f := fnv.New64a()
	f.Write([]byte(q.Signature()))
	return f.Sum64()
}
