package sharedscan

import (
	"math/rand"
	"reflect"
	"testing"
)

// takeReference is the allocate-two-slices form takeLocked replaced, kept as
// the oracle for the in-place clipping.
func takeReference(needed []span, lo, hi int) (out, rest []span) {
	for _, sp := range needed {
		if sp.hi <= lo || sp.lo >= hi {
			rest = append(rest, sp)
			continue
		}
		ilo, ihi := sp.lo, sp.hi
		if ilo < lo {
			rest = append(rest, span{ilo, lo})
			ilo = lo
		}
		if ihi > hi {
			ihi = hi
		}
		out = append(out, span{ilo, ihi})
		if ihi < sp.hi {
			rest = append(rest, span{ihi, sp.hi})
		}
	}
	return out, rest
}

// TestTakeLockedMatchesReference drives random claims against random
// uncovered-range lists (unordered, as Extend appends tails) and checks the
// in-place clip against the reference after every claim: same claimed spans,
// same remainder in the same order.
func TestTakeLockedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		// Disjoint ranges over [0, 1000), shuffled.
		var needed []span
		for pos := rng.Intn(40); pos < 1000; {
			n := 1 + rng.Intn(120)
			needed = append(needed, span{pos, min(pos+n, 1000)})
			pos += n + rng.Intn(60)
		}
		rng.Shuffle(len(needed), func(i, j int) { needed[i], needed[j] = needed[j], needed[i] })
		c := &Consumer{needed: append([]span(nil), needed...)}
		ref := needed
		prefix := []span{{-1, -1}} // the worker's buffer already holds another consumer's claim
		for len(ref) > 0 {
			lo := rng.Intn(1000)
			hi := lo + 1 + rng.Intn(200)
			wantOut, wantRest := takeReference(ref, lo, hi)
			got := c.takeLocked(lo, hi, prefix)
			if !reflect.DeepEqual(got[0], prefix[0]) {
				t.Fatalf("trial %d: claim overwrote the buffer's prefix: %v", trial, got)
			}
			if gotOut := got[1:]; len(gotOut) != len(wantOut) || (len(wantOut) > 0 && !reflect.DeepEqual(gotOut, wantOut)) {
				t.Fatalf("trial %d [%d,%d): claimed %v, want %v", trial, lo, hi, gotOut, wantOut)
			}
			if len(c.needed) != len(wantRest) || (len(wantRest) > 0 && !reflect.DeepEqual(c.needed, wantRest)) {
				t.Fatalf("trial %d [%d,%d): needed %v, want %v", trial, lo, hi, c.needed, wantRest)
			}
			ref = wantRest
		}
	}
}
