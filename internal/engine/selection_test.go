package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// circularSpans cuts the circular window of rows starting at a random row
// into spans in scan order. A span starting on the block grid runs to the
// next boundary — a whole block, the span selection reuse serves — three
// times in four, and one starting off it half the time, so in a large table
// about half the blocks are scanned whole. The other spans have random
// lengths, cross block boundaries at random offsets and must evaluate their
// predicates.
func circularSpans(rng *rand.Rand, rows int) [][2]int {
	if rows == 0 {
		return nil
	}
	start := rng.Intn(rows)
	var out [][2]int
	for off := 0; off < rows; {
		lo := (start + off) % rows
		n := 1 + rng.Intn(BatchRows+BatchRows/2)
		if rng.Intn(2) == 0 || lo%BatchRows == 0 && rng.Intn(2) == 0 {
			n = BatchRows - lo%BatchRows
		}
		n = min(n, rows-off)
		if hi := lo + n; hi <= rows {
			out = append(out, [2]int{lo, hi})
		} else {
			out = append(out, [2]int{lo, rows}, [2]int{0, hi - rows})
		}
		off += n
	}
	return out
}

// scanSpans folds spans into a fresh state of plan, through u.
func scanSpans(plan *Compiled, spans [][2]int, u *SelectionUse) *GroupState {
	gs := NewGroupState(plan)
	for _, sp := range spans {
		gs.ScanRangeReusing(sp[0], sp[1], nil, u)
	}
	return gs
}

// TestSelectionReuseMatchesEvaluation is the wall of selection reuse: a
// filtered scan that reads a recorded selection of a prefix of its filter
// and refines it with the remaining predicates folds bitwise the state of
// the scan that evaluates every predicate over the same spans — whether the
// selection is fully recorded, partly recorded, outlived by a Reset or
// shorter than the table (an Extend tail) — and the selection it records on
// the way serves an exact-match reader the same rows again.
func TestSelectionReuseMatchesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	served := 0
	for trial := 0; trial < 80; trial++ {
		normalized := rng.Intn(3) == 0
		rows := 2*BatchRows + rng.Intn(3*BatchRows)
		db := randomDB(t, rng, rows, normalized)
		q := randomQuery(rng, normalized)
		q.Filter.Predicates = append(q.Filter.Predicates, query.Predicate{
			Field: "y", Op: query.OpRange, Lo: -4000 + rng.Float64()*2000, Hi: 4000})
		if rng.Intn(2) == 0 {
			q.Filter.Predicates = append(q.Filter.Predicates, query.Predicate{
				Field: "cat_b", Op: query.OpIn, Values: []string{"b0", "b2", "b3"}})
		}
		fixFilterFields(q)
		rng.Shuffle(len(q.Filter.Predicates), func(i, j int) {
			q.Filter.Predicates[i], q.Filter.Predicates[j] = q.Filter.Predicates[j], q.Filter.Predicates[i]
		})
		label := fmt.Sprintf("trial %d (%d rows, %d predicates)", trial, rows, len(q.Filter.Predicates))
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		_, keys := q.SignatureKeys()

		// from records a prefix of q's filter, on another query shape.
		fq := randomQuery(rng, normalized)
		fq.Filter.Predicates = q.Filter.Predicates[:1+rng.Intn(len(q.Filter.Predicates))]
		fromPlan, err := Compile(db, fq)
		if err != nil {
			t.Fatalf("%s: from plan: %v", label, err)
		}
		_, fromKeys := fq.SignatureKeys()

		// The selection covers a view of view rows: the whole table, or a
		// prefix of it when the trial plays an Extend tail.
		view := rows
		if rng.Intn(3) == 0 {
			view = rng.Intn(rows + 1)
		}
		from := new(Selection)
		from.Reset(view, fromKeys)
		recorder := NewSelectionUse(fromPlan, fromKeys, nil, from)
		if recorder == nil || recorder.into != from {
			t.Fatalf("%s: a selection reset for the plan's own keys was refused", label)
		}
		fromSpans := circularSpans(rng, rows)
		if rng.Intn(3) == 0 { // partly recorded
			fromSpans = fromSpans[:rng.Intn(len(fromSpans)+1)]
		}
		scanSpans(fromPlan, fromSpans, recorder)

		into := new(Selection)
		into.Reset(rows, keys)
		use := NewSelectionUse(plan, keys, from, into)
		if use == nil || use.from != from || use.into != into {
			t.Fatalf("%s: use refused a prefix selection", label)
		}
		recorded, want := distinctKeys(fromKeys), 0
		for _, k := range keys {
			if !recorded[k] {
				want++
			}
		}
		if len(use.residual) != want {
			t.Fatalf("%s: %d residual kernels, want %d", label, len(use.residual), want)
		}
		spans := circularSpans(rng, rows)
		assertStatesEqual(t, label+" reading from", scanSpans(plan, spans, nil), scanSpans(plan, spans, use))
		served += int(use.RowsServed())

		// What the reader recorded serves an exact-match reader (no
		// residual predicates) the same rows.
		exact := NewSelectionUse(plan, keys, into, nil)
		if exact == nil || len(exact.residual) != 0 {
			t.Fatalf("%s: no exact-match use without residual kernels", label)
		}
		spans = circularSpans(rng, rows)
		assertStatesEqual(t, label+" reading what was recorded", scanSpans(plan, spans, nil), scanSpans(plan, spans, exact))

		// A use is its plan's: a state of another plan ignores it.
		twin, err := Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		before := exact.RowsServed()
		spans = circularSpans(rng, rows)
		assertStatesEqual(t, label+" foreign plan", scanSpans(twin, spans, nil), scanSpans(twin, spans, exact))
		if exact.RowsServed() != before {
			t.Fatalf("%s: a state scanned through another plan's use", label)
		}

		// A Reset to another predicate set, fully recorded, must not be
		// read through the use built before it.
		other := query.Predicate{Field: "x", Op: query.OpRange, Lo: 0, Hi: 1}
		oq := &query.Query{VizName: "o", Table: "fact", Bins: fq.Bins, Aggs: fq.Aggs,
			Filter: query.Filter{Predicates: []query.Predicate{other}}}
		oplan, err := Compile(db, oq)
		if err != nil {
			t.Fatal(err)
		}
		_, okeys := oq.SignatureKeys()
		from.Reset(rows, okeys)
		scanSpans(oplan, circularSpans(rng, rows), NewSelectionUse(oplan, okeys, nil, from))
		before = use.RowsServed()
		spans = circularSpans(rng, rows)
		assertStatesEqual(t, label+" stale generation", scanSpans(plan, spans, nil), scanSpans(plan, spans, use))
		if use.RowsServed() != before {
			t.Fatalf("%s: a use read a selection reset after it was built", label)
		}
		if NewSelectionUse(plan, keys, from, nil) != nil && !containsAllKeys(keys, okeys) {
			t.Fatalf("%s: a selection of foreign predicates was accepted", label)
		}
		// Nor may that use record into a selection reset after it was built:
		// into, re-recorded for the other set, still serves that set's rows.
		into.Reset(rows, okeys)
		scanSpans(oplan, circularSpans(rng, rows), NewSelectionUse(oplan, okeys, nil, into))
		scanSpans(plan, circularSpans(rng, rows), use)
		spans = circularSpans(rng, rows)
		assertStatesEqual(t, label+" stale recorder", scanSpans(oplan, spans, nil),
			scanSpans(oplan, spans, NewSelectionUse(oplan, okeys, into, nil)))

	}
	if served == 0 {
		t.Fatal("no trial read a recorded selection")
	}
	t.Logf("%d rows read from selections", served)
}

func distinctKeys(keys []string) map[string]bool {
	m := make(map[string]bool)
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func containsAllKeys(keys, set []string) bool {
	have := distinctKeys(keys)
	for _, k := range set {
		if !have[k] {
			return false
		}
	}
	return true
}

// TestSelectionRecordsOnlyWholeBlocks pins the recording rule the reuse
// wall rests on: a scan records and reads only whole aligned blocks inside
// the selection's view, and a Reset unrecords every block without clearing
// a flag.
func TestSelectionRecordsOnlyWholeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := 3*BatchRows + 1000 // the last block is ragged
	db := randomDB(t, rng, rows, false)
	q := &query.Query{VizName: "v", Table: "fact",
		Bins: []query.Binning{{Field: "cat_b", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "x", Op: query.OpRange, Lo: -1e9, Hi: 1e9}}}}
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	_, keys := q.SignatureKeys()
	read := func(s *Selection, i int) ([]uint32, bool) {
		var buf [BatchRows]uint32
		return NewSelectionUse(plan, keys, s, nil).read(i, buf[:])
	}
	// served scans [lo, hi) through a use reading s and returns the rows
	// it read from s.
	served := func(s *Selection, lo, hi int) int64 {
		u := NewSelectionUse(plan, keys, s, nil)
		NewGroupState(plan).ScanRangeReusing(lo, hi, nil, u)
		return u.RowsServed()
	}

	// The view ends inside block 2: block 2 reaches past it (an Extend tail).
	s := new(Selection)
	s.Reset(3*BatchRows-100, keys)
	rec := NewSelectionUse(plan, keys, nil, s)
	gs := NewGroupState(plan)
	gs.ScanRangeReusing(0, BatchRows, nil, rec)                 // block 0: aligned, inside the view
	gs.ScanRangeReusing(BatchRows+10, 2*BatchRows+10, nil, rec) // misaligned, covers most of block 1
	gs.ScanRangeReusing(2*BatchRows, rows, nil, rec)            // block 2 (past the view) and the ragged tail
	s.mu.RLock()
	for i := range s.rec {
		if got := s.rec[i].Load() == s.gen; got != (i == 0) {
			t.Errorf("block %d recorded = %v, want %v", i, got, i == 0)
		}
	}
	s.mu.RUnlock()
	if sel, ok := read(s, 0); !ok || len(sel) != BatchRows || sel[0] != 0 || sel[BatchRows-1] != BatchRows-1 {
		t.Fatalf("read block 0 of an all-pass filter: %v, %d rows", ok, len(sel))
	}
	for _, c := range []struct {
		name   string
		lo, hi int
	}{
		{"a misaligned span inside a recorded block", 10, 100},
		{"a misaligned block-long span", 10, BatchRows + 10},
		{"the block a misaligned span covered most of", BatchRows, 2 * BatchRows},
		{"the misaligned span itself", BatchRows + 10, 2*BatchRows + 10},
		{"a block reaching past the view", 2 * BatchRows, 3 * BatchRows},
		{"the ragged last block", 3 * BatchRows, rows},
	} {
		if n := served(s, c.lo, c.hi); n != 0 {
			t.Errorf("%s [%d, %d) was read: %d rows", c.name, c.lo, c.hi, n)
		}
	}

	// A view covering the whole table still leaves the ragged block out.
	whole := new(Selection)
	whole.Reset(rows, keys)
	NewGroupState(plan).ScanRangeReusing(0, rows, nil, NewSelectionUse(plan, keys, nil, whole))
	for i := 0; i < 3; i++ {
		if _, ok := read(whole, i); !ok {
			t.Errorf("block %d of a view covering it was not recorded", i)
		}
	}
	if served(whole, 3*BatchRows, rows) != 0 {
		t.Error("the ragged last block of the table was read")
	}

	if NewSelectionUse(plan, keys, s, s).into != nil {
		t.Fatal("a use records into the selection it reads")
	}
	s.Reset(3*BatchRows-100, keys)
	if _, ok := read(s, 0); ok || s.Recorded() {
		t.Fatal("a block recorded before a Reset was read after it")
	}
}
