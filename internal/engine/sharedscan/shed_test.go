package sharedscan

import (
	"testing"
)

// TestShedSpeculativeDetachesOnlyBackground pins the overload valve: shedding
// removes purely speculative consumers from the active scan, never foreground
// ones, and a shed consumer resumes with full coverage on its next Acquire.
func TestShedSpeculativeDetachesOnlyBackground(t *testing.T) {
	f := newFixture(t, 200_000, 1)
	s := New(f.db.Fact.NumRows(), 512, 1)

	fg := newConsumer(s, f.plan(t, 0))
	fg.Acquire()
	spec := newConsumer(s, f.plan(t, 1))
	spec.Speculate()
	spec2 := newConsumer(s, f.plan(t, 2))
	spec2.Speculate()
	// A consumer that is both foreground and speculative counts as foreground.
	both := newConsumer(s, f.plan(t, 0))
	both.Acquire()
	both.Speculate()

	if got := s.ActiveConsumers(); got != 4 {
		t.Fatalf("active consumers = %d, want 4", got)
	}
	if n := s.ShedSpeculative(); n != 2 {
		t.Fatalf("shed %d consumers, want 2 (the purely speculative pair)", n)
	}
	if got := s.ActiveConsumers(); got != 2 {
		t.Fatalf("active consumers after shed = %d, want 2 foreground", got)
	}
	if n := s.ShedSpeculative(); n != 0 {
		t.Fatalf("second shed removed %d consumers, want 0", n)
	}

	// Foreground work is untouched: both foreground consumers complete
	// exactly.
	waitDone(t, fg)
	fg.Release()
	resultsIdentical(t, "fg", f.exact(t, 0), fg.Snapshot(1.96))
	waitDone(t, both)
	both.Release()
	resultsIdentical(t, "both", f.exact(t, 0), both.Snapshot(1.96))

	// A shed consumer kept its coverage: re-acquiring resumes the scan from
	// where it stopped and still produces the exact result.
	spec.Acquire()
	waitDone(t, spec)
	spec.Release()
	resultsIdentical(t, "resumed", f.exact(t, 1), spec.Snapshot(1.96))

	// The other shed consumer resumes via speculation just as well.
	spec2.Speculate()
	waitDone(t, spec2)
	spec2.Unspeculate()
	resultsIdentical(t, "resumed-spec", f.exact(t, 2), spec2.Snapshot(1.96))
}
