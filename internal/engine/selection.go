package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Selection records which rows of one table view pass a conjunction of
// filter predicates, so a later plan whose filter contains those predicates
// can read the rows instead of evaluating them (drill-down reuse: a filter
// grows p1 → p1∧p2, and sibling visualizations share one filter). It is a
// bitmap over the view's rows plus one "recorded" bit per 64-row word of it:
// a word is read only once its recorded bit is set, and the bit is set only
// after the word holds every row of its 64 that passes.
//
// Reset binds the selection to a predicate set and a view and bumps its
// generation; Invalidate bumps the generation alone. A SelectionUse captures
// the generation it was built against, and every batch checks it under the
// read lock, so a use outlived by a Reset neither reads nor records. Rows are
// immutable within a lineage, so a selection reset for a view holds for the
// same rows of every later, grown view; rows beyond its view are never read
// from it.
type Selection struct {
	mu   sync.RWMutex
	gen  uint64
	rows int
	keys []string // sorted, distinct predicate keys; nil while invalid
	bits []uint64 // bit r&63 of word r>>6: row r passes
	rec  []atomic.Uint64
	any  atomic.Bool // some word is recorded in this generation
}

// Reset binds s to the rows of a view of the given size and to the predicate
// set keys (query.Query.SignatureKeys; order and repeats do not matter),
// forgetting everything recorded. The bitmap is reallocated only when the
// view outgrows it.
func (s *Selection) Reset(rows int, keys []string) {
	set := slices.Clone(keys)
	slices.Sort(set)
	set = slices.Compact(set)
	words := (rows + 63) >> 6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.rows, s.keys = rows, set
	s.any.Store(false)
	if len(s.bits) < words {
		// Headroom for the appends a live view will grow by.
		s.bits = make([]uint64, words+words/8)
		s.rec = make([]atomic.Uint64, (len(s.bits)+63)>>6)
	} else {
		for i := range s.rec {
			s.rec[i].Store(0)
		}
	}
}

// Invalidate forgets what s records; no use built before it reads or records
// again.
func (s *Selection) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.rows, s.keys = 0, nil
	s.any.Store(false)
}

// Recorded reports whether s holds any recorded rows: a selection just
// claimed by a query that has not folded yet holds none.
func (s *Selection) Recorded() bool { return s.any.Load() }

// Match reports how s's predicate set relates to keys, a plan's predicate
// keys: n is the set's size when every predicate of it is in keys (-1
// otherwise, and while s is invalid), and exact reports that keys name no
// other predicate.
func (s *Selection) Match(keys []string) (n int, exact bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.keys == nil || !subsetOf(s.keys, keys) {
		return -1, false
	}
	return len(s.keys), subsetOf(keys, s.keys)
}

// recordedLocked reports whether every word overlapping rows [lo, hi) is
// recorded. Caller holds the read lock and has checked hi <= s.rows.
func (s *Selection) recordedLocked(lo, hi int) bool {
	for w, end := lo>>6, (hi+63)>>6; w < end; {
		bit := w & 63
		n := min(64-bit, end-w)
		mask := (uint64(1)<<n - 1) << bit
		if s.rec[w>>6].Load()&mask != mask {
			return false
		}
		w += n
	}
	return true
}

// expandLocked writes the recorded rows of [lo, hi) into buf in ascending
// order and returns the filled prefix. Caller holds the read lock and has
// checked the words are recorded.
func (s *Selection) expandLocked(lo, hi int, buf []uint32) []uint32 {
	k := 0
	for w, end := lo>>6, (hi+63)>>6; w < end; w++ {
		m, base := s.bits[w], w<<6
		if base < lo {
			m &= ^uint64(0) << (lo - base)
		}
		if base+64 > hi {
			m &= ^uint64(0) >> (base + 64 - hi)
		}
		for ; m != 0; m &= m - 1 {
			buf[k] = uint32(base + bits.TrailingZeros64(m))
			k++
		}
	}
	return buf[:k]
}

// recordLocked stores sel, the passing rows of [lo, hi) in ascending order,
// into the words lying wholly inside the range and marks them recorded. A word straddling the
// range's edge is left for nobody: the spans one consumer's workers fold are
// disjoint, so each word is written at most once per generation and never
// while a reader can see it recorded. Caller holds the read lock and has
// clipped hi to s.rows.
func (s *Selection) recordLocked(lo, hi int, sel []uint32) {
	w0, w1 := (lo+63)>>6, hi>>6
	if w0 >= w1 {
		return
	}
	i := 0
	for i < len(sel) && int(sel[i]>>6) < w0 {
		i++
	}
	for w := w0; w < w1; w++ {
		var m uint64
		for ; i < len(sel) && int(sel[i]>>6) == w; i++ {
			m |= 1 << (sel[i] & 63)
		}
		s.bits[w] = m
	}
	// Publish: the atomic Or orders the word writes above before any reader's
	// load that observes the recorded bit.
	for w := w0; w < w1; {
		bit := w & 63
		n := min(64-bit, w1-w)
		s.rec[w>>6].Or((uint64(1)<<n - 1) << bit)
		w += n
	}
	if !s.any.Load() {
		s.any.Store(true) // once per generation: workers recording in parallel share the line
	}
}

// SelectionUse is how one compiled plan takes part in selection reuse: it
// reads the rows passing from's predicates wherever from has recorded them
// and evaluates only its residual predicates on them, and it records the
// rows passing its whole filter into into. Either side may be absent. A
// batch from has not recorded is read from the first fallback that has,
// with that selection's residual predicates. The use belongs to its plan:
// GroupState.ScanRangeUsing ignores it for a state of any other plan (a
// shard that sharedscan.Extend rebound to a grown view), which then
// evaluates every predicate.
type SelectionUse struct {
	plan     *Compiled
	from     *Selection
	fromGen  uint64
	residual []predKernel
	// fallback holds one read-only use of the same plan per usable fallback
	// selection, tried in order for a batch from has not recorded.
	fallback []*SelectionUse
	into     *Selection
	intoGen  uint64
	served   atomic.Int64
}

// NewSelectionUse builds plan's use of from and into (either may be nil)
// and of the fallback selections. keys are the plan's predicate keys in
// filter order, as query.Query.SignatureKeys returns them for the plan's
// query. from and each fallback are used only if their predicate set is a
// subset of keys, into only if its set is exactly keys' and it is not read
// (a word is written once, before anyone reads it). A session passes the
// most specific selection it holds as from, and as fallback the most
// specific one already holding records: the first may have been claimed a
// moment ago by a query that has not folded yet. It returns nil when no
// selection is usable.
func NewSelectionUse(plan *Compiled, keys []string, from, into *Selection, fallback ...*Selection) *SelectionUse {
	if len(keys) == 0 || len(keys) != len(plan.predKern) {
		return nil
	}
	if into == from || slices.Contains(fallback, into) {
		into = nil
	}
	u := &SelectionUse{plan: plan}
	u.from, u.fromGen, u.residual = readerOf(plan, keys, from)
	for _, f := range fallback {
		if f == from {
			continue
		}
		if sel, gen, res := readerOf(plan, keys, f); sel != nil {
			u.fallback = append(u.fallback, &SelectionUse{plan: plan, from: sel, fromGen: gen, residual: res})
		}
	}
	if into != nil {
		into.mu.RLock()
		if ik := into.keys; ik != nil && subsetOf(ik, keys) && subsetOf(keys, ik) {
			u.into, u.intoGen = into, into.gen
		}
		into.mu.RUnlock()
	}
	if u.from == nil && u.into == nil && u.fallback == nil {
		return nil
	}
	return u
}

// readerOf returns from with its generation and the kernels of plan's
// predicates it does not record, or a nil selection when from is nil,
// invalid or records a predicate outside keys.
func readerOf(plan *Compiled, keys []string, from *Selection) (*Selection, uint64, []predKernel) {
	if from == nil {
		return nil, 0, nil
	}
	from.mu.RLock()
	defer from.mu.RUnlock()
	fk := from.keys
	if fk == nil || !subsetOf(fk, keys) {
		return nil, 0, nil
	}
	var residual []predKernel
	for i, k := range keys {
		if !slices.Contains(fk, k) {
			residual = append(residual, plan.predKern[i])
		}
	}
	return from, from.gen, residual
}

func subsetOf(a, b []string) bool {
	for _, k := range a {
		if !slices.Contains(b, k) {
			return false
		}
	}
	return true
}

// RowsServed returns how many rows the use's batches have read from a
// recorded selection instead of evaluating the plan's filter.
func (u *SelectionUse) RowsServed() int64 {
	if u == nil {
		return 0
	}
	return u.served.Load()
}

// read returns the rows of [lo, hi) that pass the predicates of from, or
// else of the first fallback, that still has the use's generation, covers
// the range and has recorded every word it overlaps, in ascending order in
// buf, with the residual kernels that still apply to them; ok is false when
// none does.
func (u *SelectionUse) read(lo, hi int, buf []uint32) (sel []uint32, residual []predKernel, ok bool) {
	if u == nil {
		return nil, nil, false
	}
	src := u
	sel, ok = u.readFrom(lo, hi, buf)
	for i := 0; !ok && i < len(u.fallback); i++ {
		src = u.fallback[i]
		sel, ok = src.readFrom(lo, hi, buf)
	}
	if !ok {
		return nil, nil, false
	}
	u.served.Add(int64(hi - lo))
	return sel, src.residual, true
}

// readFrom is read from u's from selection alone.
func (u *SelectionUse) readFrom(lo, hi int, buf []uint32) (sel []uint32, ok bool) {
	f := u.from
	if f == nil {
		return nil, false
	}
	f.mu.RLock()
	ok = f.gen == u.fromGen && hi <= f.rows && f.recordedLocked(lo, hi)
	if ok {
		sel = f.expandLocked(lo, hi, buf)
	}
	f.mu.RUnlock()
	return sel, ok
}

// record stores sel, the rows of [lo, hi) passing the plan's filter, into
// the use's into selection while its generation holds, for the part of the
// range inside the selection's view.
func (u *SelectionUse) record(lo, hi int, sel []uint32) {
	if u == nil || u.into == nil {
		return
	}
	t := u.into
	t.mu.RLock()
	if t.gen == u.intoGen && lo < t.rows {
		t.recordLocked(lo, min(hi, t.rows), sel)
	}
	t.mu.RUnlock()
}
