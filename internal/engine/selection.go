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
// grows p1 → p1∧p2, and sibling visualizations share one filter). It is one
// stage of the per-block chain (GroupState.ScanRangeReusing): it records
// and serves only whole blocks [i·BatchRows, (i+1)·BatchRows) that lie
// inside its view, as a bitmap over their rows plus one recorded flag per
// block — the generation that recorded it.
//
// Reset binds the selection to a predicate set and a view and bumps its
// generation; Invalidate bumps the generation alone. Neither clears a flag:
// a flag of an older generation reads as unrecorded. A SelectionUse captures
// the generation it was built against, and every batch checks it under the
// read lock, so a use outlived by a Reset neither reads nor records. Rows are
// immutable within a lineage, so a selection reset for a view holds for the
// same rows of every later, grown view; rows beyond its view are never read
// from it.
type Selection struct {
	mu   sync.RWMutex
	gen  uint64
	rows int
	keys []string        // sorted, distinct predicate keys; nil while invalid
	bits []uint64        // bit r&63 of word r>>6: row r passes
	rec  []atomic.Uint64 // rec[i] == gen: block i is recorded
	any  atomic.Bool     // some block is recorded in this generation
}

// blockWords is the number of bitmap words one block spans.
const blockWords = BatchRows / 64

// Reset binds s to the rows of a view of the given size and to the predicate
// set keys (query.Query.SignatureKeys; order and repeats do not matter),
// forgetting everything recorded. The bitmap is reallocated only when the
// view outgrows it.
func (s *Selection) Reset(rows int, keys []string) {
	set := slices.Clone(keys)
	slices.Sort(set)
	set = slices.Compact(set)
	blocks := rows / BatchRows
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.rows, s.keys = rows, set
	s.any.Store(false)
	if len(s.rec) < blocks {
		// Headroom for the appends a live view will grow by.
		s.rec = make([]atomic.Uint64, blocks+blocks/8)
		s.bits = make([]uint64, len(s.rec)*blockWords)
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

// expandLocked writes the recorded rows of block i into buf in ascending
// order and returns the filled prefix. Caller holds the read lock and has
// checked the block is recorded.
func (s *Selection) expandLocked(i int, buf []uint32) []uint32 {
	k := 0
	for w := i * blockWords; w < (i+1)*blockWords; w++ {
		for m := s.bits[w]; m != 0; m &= m - 1 {
			buf[k] = uint32(w<<6 + bits.TrailingZeros64(m))
			k++
		}
	}
	return buf[:k]
}

// recordLocked stores sel, the passing rows of block i in ascending order,
// and marks the block recorded. The spans one consumer's workers fold are
// disjoint, so a block is written at most once per generation and never
// while a reader can see it recorded. Caller holds the read lock.
func (s *Selection) recordLocked(i int, sel []uint32) {
	words := s.bits[i*blockWords : (i+1)*blockWords]
	base, k := i*BatchRows, 0
	for w := range words {
		var m uint64
		for ; k < len(sel) && int(sel[k])-base < (w+1)<<6; k++ {
			m |= 1 << (sel[k] & 63)
		}
		words[w] = m
	}
	// Publish: the atomic store orders the word writes above before any
	// reader's load that observes the block's flag.
	s.rec[i].Store(s.gen)
	if !s.any.Load() {
		s.any.Store(true) // once per generation: workers recording in parallel share the line
	}
}

// SelectionUse is how one compiled plan takes part in selection reuse: it
// reads the rows passing from's predicates wherever from has recorded them
// and evaluates only its residual predicates on them, and it records the
// rows passing its whole filter into into. Either side may be absent. The
// use belongs to its plan: GroupState.ScanRangeReusing ignores it for a
// state of any other plan (a shard that sharedscan.Extend rebound to a
// grown view), which then evaluates every predicate.
type SelectionUse struct {
	plan     *Compiled
	from     *Selection
	fromGen  uint64
	residual []predKernel
	into     *Selection
	intoGen  uint64
	served   atomic.Int64
}

// NewSelectionUse builds plan's use of from and into (either may be nil).
// keys are the plan's predicate keys in filter order, as
// query.Query.SignatureKeys returns them for the plan's query. from is used
// only if its predicate set is a subset of keys, into only if its set is
// exactly keys' and it is not from (a block is written once, before anyone
// reads it). It returns nil when neither is usable.
func NewSelectionUse(plan *Compiled, keys []string, from, into *Selection) *SelectionUse {
	if len(keys) == 0 || len(keys) != len(plan.predKern) {
		return nil
	}
	if into == from {
		into = nil
	}
	u := &SelectionUse{plan: plan}
	u.from, u.fromGen, u.residual = readerOf(plan, keys, from)
	if into != nil {
		into.mu.RLock()
		if ik := into.keys; ik != nil && subsetOf(ik, keys) && subsetOf(keys, ik) {
			u.into, u.intoGen = into, into.gen
		}
		into.mu.RUnlock()
	}
	if u.from == nil && u.into == nil {
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

// read returns the rows of block i that pass from's predicates, in
// ascending order in buf; ok is false unless the block lies inside from's
// view and from, still at the use's generation, has recorded it. The rows
// still need the use's residual kernels.
func (u *SelectionUse) read(i int, buf []uint32) (sel []uint32, ok bool) {
	if u == nil || u.from == nil {
		return nil, false
	}
	f := u.from
	f.mu.RLock()
	ok = (i+1)*BatchRows <= f.rows && f.gen == u.fromGen && f.rec[i].Load() == f.gen
	if ok {
		sel = f.expandLocked(i, buf)
		u.served.Add(BatchRows)
	}
	f.mu.RUnlock()
	return sel, ok
}

// record stores sel, the rows of block i passing the plan's filter, into
// the use's into selection while its generation holds, when the block lies
// inside the selection's view.
func (u *SelectionUse) record(i int, sel []uint32) {
	if u == nil || u.into == nil {
		return
	}
	t := u.into
	t.mu.RLock()
	if (i+1)*BatchRows <= t.rows && t.gen == u.intoGen {
		t.recordLocked(i, sel)
	}
	t.mu.RUnlock()
}
