package progressive

import (
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/query"
)

// TestMarginCoverage is a statistical validity check (the paper's
// "out of margin" sanity metric, Sec. 4.7): at a 95% confidence level the
// true value must fall inside the reported margin for roughly 95% of bins.
// We allow generous slack (>= 80%) because one partial snapshot yields few
// bins and the CLT is approximate for small per-bin counts.
func TestMarginCoverage(t *testing.T) {
	db := enginetest.SmallDB(98*dataset.BlockRows, 99)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Confidence: 0.95, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	q := enginetest.CountByCarrier()
	gt, err := enginetest.Exact(db, q)
	if err != nil {
		t.Fatal(err)
	}

	inMargin, total := 0, 0
	// Repeat over several fresh partial snapshots for statistical power.
	for rep := 0; rep < 10; rep++ {
		sess.WorkflowStart() // cold state each repetition
		h, err := sess.StartQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		var snap *query.Result
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			snap = h.Snapshot()
			if snap != nil && snap.RowsSeen > 5000 {
				break
			}
		}
		h.Cancel()
		<-h.Done()
		if snap == nil || snap.Complete || snap.RowsSeen == 0 {
			continue // machine raced to completion; skip this rep
		}
		for k, bv := range snap.Bins {
			gv, ok := gt.Bins[k]
			if !ok {
				continue
			}
			diff := bv.Values[0] - gv.Values[0]
			if diff < 0 {
				diff = -diff
			}
			if diff <= bv.Margins[0] {
				inMargin++
			}
			total++
		}
	}
	if total == 0 {
		t.Skip("no partial snapshots observed (machine too fast)")
	}
	coverage := float64(inMargin) / float64(total)
	if coverage < 0.80 {
		t.Errorf("margin coverage %.2f (%d/%d), want >= 0.80 at 95%% confidence",
			coverage, inMargin, total)
	}
}
