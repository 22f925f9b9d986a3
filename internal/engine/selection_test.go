package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// circularSpans cuts the circular window of rows starting at a random row
// into spans of random lengths, so span edges fall on no 64-row boundary in
// particular; it returns them in scan order.
func circularSpans(rng *rand.Rand, rows int) [][2]int {
	if rows == 0 {
		return nil
	}
	start := rng.Intn(rows)
	var out [][2]int
	for off := 0; off < rows; {
		n := min(1+rng.Intn(BatchRows+BatchRows/2), rows-off)
		lo := (start + off) % rows
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
		gs.ScanRangeUsing(sp[0], sp[1], u)
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
		rows := 1 + rng.Intn(5*BatchRows)
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

// TestSelectionRecordsOnlyWholeWords pins the recording rule the reuse
// wall rests on: a span records exactly the 64-row words lying wholly
// inside it and inside the selection's view, and a read needs every word it
// overlaps.
func TestSelectionRecordsOnlyWholeWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(t, rng, 1000, false)
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
	s := new(Selection)
	s.Reset(900, keys)
	rec := NewSelectionUse(plan, keys, nil, s)
	NewGroupState(plan).ScanRangeUsing(10, 200, rec) // words 1, 2 (64..191)
	NewGroupState(plan).ScanRangeUsing(832, 1000, rec)
	for _, c := range []struct {
		lo, hi int
		want   bool
	}{
		{64, 192, true}, {70, 100, true}, {63, 100, false}, {100, 193, false},
		{832, 896, true}, {832, 897, false}, {896, 900, false},
	} {
		s.mu.RLock()
		got := c.hi <= s.rows && s.recordedLocked(c.lo, c.hi)
		s.mu.RUnlock()
		if got != c.want {
			t.Errorf("[%d, %d) recorded = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if NewSelectionUse(plan, keys, s, s).into != nil {
		t.Fatal("a use records into the selection it reads")
	}
	var buf [BatchRows]uint32
	if sel, _, ok := NewSelectionUse(plan, keys, s, nil).read(70, 100, buf[:]); !ok || len(sel) != 30 || sel[0] != 70 || sel[29] != 99 {
		t.Fatalf("read [70, 100) of an all-pass filter: %v %v", ok, sel)
	}
}
