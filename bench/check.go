package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/metrics"
	"idebench/internal/query"
)

// sumTolerance is the relative difference allowed between an engine's SUM or
// AVG and the cold scan's. Those two add the same numbers in different
// orders (the progressive engine scans a permutation, in parallel), and
// float addition is not associative; COUNT, MIN and MAX do not depend on
// order and must be equal (as float64 values: which of -0 and +0 a MAX keeps
// does depend on order, and they are the same number).
const sumTolerance = 1e-9

// sameResult reports how got, an engine's exact final, differs from want, a
// cold single-threaded scan of the same data version; nil when it does not.
func sameResult(q *query.Query, got, want *query.Result) error {
	if got == nil {
		return fmt.Errorf("no final result")
	}
	if !got.Complete {
		return fmt.Errorf("final is not complete (rows seen %d of %d)", got.RowsSeen, got.TotalRows)
	}
	if len(got.Bins) != len(want.Bins) {
		return fmt.Errorf("%d bins, cold scan has %d", len(got.Bins), len(want.Bins))
	}
	for k, w := range want.Bins {
		g, ok := got.Bins[k]
		if !ok {
			return fmt.Errorf("bin %v missing", k)
		}
		for i, a := range q.Aggs {
			gv, wv := g.Values[i], w.Values[i]
			switch a.Func {
			case query.Sum, query.Avg:
				if math.Abs(gv-wv) > sumTolerance*math.Max(1, math.Abs(wv)) {
					return fmt.Errorf("bin %v %s: %v, cold scan %v", k, a, gv, wv)
				}
			default:
				if gv != wv {
					return fmt.Errorf("bin %v %s: %v, cold scan %v (must be equal)", k, a, gv, wv)
				}
			}
		}
	}
	return nil
}

// truth answers "what is the exact result of q at this data version" by a
// cold scan, outside the timed window.
type truth struct {
	base    *groundtruth.Cache
	lineage *ingest.Harness // ingest-mixed: base + acknowledged batches
	baseWM  int64
	spent   time.Duration
	mu      sync.Mutex
}

// newTruth builds the reference over db; with batches it first replays them
// into a private versioned copy, so a result can be held to the version its
// watermark names.
func newTruth(db *dataset.Database, batches []*ingest.Batch) (*truth, error) {
	t := &truth{base: groundtruth.New(db), baseWM: int64(db.Fact.NumRows())}
	if len(batches) == 0 {
		return t, nil
	}
	t0 := time.Now()
	t.lineage = ingest.NewHarness(db, ingest.NewFixedSource(batches...))
	for range batches {
		if _, err := t.lineage.Ingest(0); err != nil {
			return nil, err
		}
	}
	t.spent = time.Since(t0)
	return t, nil
}

func (t *truth) at(q *query.Query, watermark int64) (*query.Result, error) {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		t.mu.Lock()
		t.spent += d
		t.mu.Unlock()
	}()
	if t.lineage == nil || watermark <= t.baseWM {
		return t.base.Get(q)
	}
	return t.lineage.TruthAt(q, watermark)
}

// quality is the paper's view of the time-requirement snapshots of the
// sampled queries.
type quality struct {
	mre, missing series
	evalUS       series
}

// checkOps compares the sampled finals against cold scans and, when scoreTR
// is set, scores the sampled time-requirement snapshots. It returns the
// number of operations with a wrong final and the first few reasons.
func checkOps(ops []*opRec, tr *truth, limit int, scoreTR bool) (wrong int, reasons []string, ql quality) {
	var sampled []*opRec
	for _, o := range ops {
		if o.sampled && o.complete && o.err == nil && !o.timedOut && !o.rejected && !o.shed {
			sampled = append(sampled, o)
		}
	}
	if len(sampled) > limit {
		// Evenly spaced, so late (larger-table, busier) queries are checked too.
		picked := make([]*opRec, limit)
		for i := range picked {
			picked[i] = sampled[i*len(sampled)/limit]
		}
		sampled = picked
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan *opRec)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				var wm int64
				if o.finalRes != nil {
					wm = o.finalRes.Watermark
				}
				want, err := tr.at(o.q, wm)
				if err == nil {
					err = sameResult(o.q, o.finalRes, want)
				}
				var m metrics.QueryMetrics
				var evalDur time.Duration
				scored := false
				if err == nil && scoreTR && o.trRes != nil {
					ref := want
					if o.trRes.Watermark != wm {
						ref, err = tr.at(o.q, o.trRes.Watermark)
					}
					if err == nil {
						t0 := time.Now()
						m = metrics.Evaluate(o.trRes, ref, false)
						evalDur = time.Since(t0)
						scored = true
					}
				}
				mu.Lock()
				if err != nil {
					wrong++
					if len(reasons) < 5 {
						reasons = append(reasons, fmt.Sprintf("query %d (%s): %v", o.id, o.q.VizName, err))
					}
				}
				if scored {
					if !math.IsNaN(m.RelErrAvg) {
						ql.mre = append(ql.mre, m.RelErrAvg)
					}
					ql.missing = append(ql.missing, m.MissingBins)
					ql.evalUS = append(ql.evalUS, us(evalDur))
				}
				mu.Unlock()
			}
		}()
	}
	for _, o := range sampled {
		work <- o
	}
	close(work)
	wg.Wait()
	return wrong, reasons, ql
}
