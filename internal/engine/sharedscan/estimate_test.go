package sharedscan

import (
	"math"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// partialOf lays db's fact table out in the permutation of seed, as the
// progressive engine's Prepare does, steps a COUNT BY carrier over it to 3
// blocks, a partial far from complete, and returns its snapshot at 95%
// confidence.
func partialOf(t *testing.T, db *dataset.Database, seed int64) *query.Result {
	t.Helper()
	n := db.Fact.NumRows()
	permuted, err := db.ReorderFact(stats.Permutation(rand.New(rand.NewSource(seed)), n))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(permuted, enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	s := stepped(n, 1)
	c := newConsumer(s, plan)
	c.Acquire()
	defer c.Release()
	for range 3 {
		s.step(0)
	}
	snap := c.Snapshot(1.96)
	if snap.Complete || snap.RowsSeen != 3*dataset.BlockRows || snap.TotalRows != int64(n) {
		t.Fatalf("snapshot of %d of %d rows, complete=%v; want a partial of 3 blocks",
			snap.RowsSeen, snap.TotalRows, snap.Complete)
	}
	return snap
}

// TestPartialEstimateIsUnbiasedish: a partial snapshot scales its window to
// the whole table, so a 3-block window of a 49-block table estimates every
// carrier's count within 25% of the truth, with finite margins.
func TestPartialEstimateIsUnbiasedish(t *testing.T) {
	db := enginetest.SmallDB(49*dataset.BlockRows, 17)
	snap := partialOf(t, db, 3)
	gt, err := enginetest.Exact(db, enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.ResultsEqual(gt, snap, 0.25); err != nil {
		t.Errorf("partial estimate too far off: %v", err)
	}
	if !snap.FiniteMargins() {
		t.Error("partial snapshot must carry finite margins")
	}
}

// TestMarginCoverage is a statistical validity check (the paper's "out of
// margin" sanity metric, Sec. 4.7): at a 95% confidence level the true value
// must fall inside the reported margin for roughly 95% of bins. Each of 10
// repetitions scans the table in a permutation of its own: independent
// samples, each stopped at the same partial. The bound allows generous
// slack (>= 80%) because the CLT is approximate for small per-bin counts.
func TestMarginCoverage(t *testing.T) {
	db := enginetest.SmallDB(49*dataset.BlockRows, 99)
	gt, err := enginetest.Exact(db, enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	inMargin, total := 0, 0
	for rep := int64(0); rep < 10; rep++ {
		for k, bv := range partialOf(t, db, 100+rep).Bins {
			gv, ok := gt.Bins[k]
			if !ok {
				continue
			}
			if math.Abs(bv.Values[0]-gv.Values[0]) <= bv.Margins[0] {
				inMargin++
			}
			total++
		}
	}
	coverage := float64(inMargin) / float64(total)
	if coverage < 0.80 {
		t.Errorf("margin coverage %.2f (%d/%d), want >= 0.80 at 95%% confidence",
			coverage, inMargin, total)
	}
}
