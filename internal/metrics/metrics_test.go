package metrics

import (
	"math"
	"testing"

	"idebench/internal/query"
)

func mkResult(bins map[query.BinKey][]float64, margins map[query.BinKey][]float64) *query.Result {
	r := query.NewResult()
	for k, vals := range bins {
		bv := &query.BinValue{Values: vals, Margins: make([]float64, len(vals))}
		if m, ok := margins[k]; ok {
			bv.Margins = m
		}
		r.Bins[k] = bv
	}
	return r
}

func TestPerfectResult(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {10}, {A: 1}: {20},
	}, nil)
	m := Evaluate(gt.Clone(), gt, false)
	if m.TRViolated || !m.HasResult {
		t.Error("flags wrong")
	}
	if m.MissingBins != 0 {
		t.Errorf("MissingBins = %v", m.MissingBins)
	}
	if m.RelErrAvg != 0 || m.SMAPE != 0 {
		t.Errorf("errors should be zero: rel=%v smape=%v", m.RelErrAvg, m.SMAPE)
	}
	if m.CosineDistance > 1e-12 {
		t.Errorf("cosine = %v", m.CosineDistance)
	}
	if m.Bias != 1 {
		t.Errorf("bias = %v", m.Bias)
	}
	if m.OutOfMargin != 0 {
		t.Errorf("out of margin = %d", m.OutOfMargin)
	}
	if m.BinsDelivered != 2 || m.BinsInGT != 2 {
		t.Error("bin counts wrong")
	}
}

func TestViolated(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{{A: 0}: {10}}, nil)
	m := Violated(gt)
	if !m.TRViolated || m.HasResult {
		t.Error("flags wrong")
	}
	if m.MissingBins != 1 {
		t.Errorf("MissingBins = %v", m.MissingBins)
	}
	if !math.IsNaN(m.RelErrAvg) || !math.IsNaN(m.CosineDistance) {
		t.Error("error metrics should be NaN")
	}
	// Evaluate with nil result behaves identically.
	m2 := Evaluate(nil, gt, true)
	if !m2.TRViolated || m2.MissingBins != 1 {
		t.Error("Evaluate(nil) should equal Violated")
	}
}

func TestMissingBins(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {10}, {A: 1}: {20}, {A: 2}: {30}, {A: 3}: {40},
	}, nil)
	res := mkResult(map[query.BinKey][]float64{
		{A: 0}: {10}, {A: 2}: {30},
	}, nil)
	m := Evaluate(res, gt, false)
	if m.MissingBins != 0.5 {
		t.Errorf("MissingBins = %v, want 0.5", m.MissingBins)
	}
	if m.BinsDelivered != 2 || m.BinsInGT != 4 {
		t.Error("bin counts wrong")
	}
}

func TestRelativeErrorAndBias(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {100}, {A: 1}: {200},
	}, nil)
	res := mkResult(map[query.BinKey][]float64{
		{A: 0}: {110}, {A: 1}: {180},
	}, nil)
	m := Evaluate(res, gt, false)
	// Relative errors: 0.1 and 0.1 → mean 0.1.
	if math.Abs(m.RelErrAvg-0.1) > 1e-12 {
		t.Errorf("RelErrAvg = %v, want 0.1", m.RelErrAvg)
	}
	if m.RelErrStdev > 1e-12 {
		t.Errorf("RelErrStdev = %v, want 0", m.RelErrStdev)
	}
	// Bias: 290/300.
	if math.Abs(m.Bias-290.0/300.0) > 1e-12 {
		t.Errorf("Bias = %v", m.Bias)
	}
}

func TestRelErrorSkipsZeroTruth(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {0}, {A: 1}: {100},
	}, nil)
	res := mkResult(map[query.BinKey][]float64{
		{A: 0}: {5}, {A: 1}: {100},
	}, nil)
	m := Evaluate(res, gt, false)
	if m.RelErrAvg != 0 {
		t.Errorf("RelErrAvg should skip A=0 bins: %v", m.RelErrAvg)
	}
	// SMAPE includes the zero bin: |5-0|/(5+0) = 1, second bin 0 → 0.5.
	if math.Abs(m.SMAPE-0.5) > 1e-12 {
		t.Errorf("SMAPE = %v, want 0.5", m.SMAPE)
	}
}

func TestCosineDistanceShape(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {1}, {A: 1}: {2}, {A: 2}: {3},
	}, nil)
	// Same shape, scaled ×10 → cosine distance 0.
	res := mkResult(map[query.BinKey][]float64{
		{A: 0}: {10}, {A: 1}: {20}, {A: 2}: {30},
	}, nil)
	m := Evaluate(res, gt, false)
	if m.CosineDistance > 1e-9 {
		t.Errorf("scaled shape should have ~0 cosine distance, got %v", m.CosineDistance)
	}
	// Orthogonal shape.
	res2 := mkResult(map[query.BinKey][]float64{
		{A: 9}: {5},
	}, nil)
	m2 := Evaluate(res2, gt, false)
	if m2.CosineDistance < 0.99 {
		t.Errorf("disjoint bins should have cosine distance ~1, got %v", m2.CosineDistance)
	}
}

func TestCosineBothEmpty(t *testing.T) {
	m := Evaluate(query.NewResult(), query.NewResult(), false)
	if m.CosineDistance != 0 {
		t.Errorf("two empty results are identical shapes: %v", m.CosineDistance)
	}
	if m.MissingBins != 0 {
		t.Errorf("no gt bins → no missing bins: %v", m.MissingBins)
	}
}

// TestOutOfMarginRelativeTolerance: an exact answer that differs from the
// ground truth only in its last bit, as a sum taken in another row order
// does, is inside even a zero margin.
func TestOutOfMarginRelativeTolerance(t *testing.T) {
	a := 1e6
	gt := mkResult(map[query.BinKey][]float64{{A: 0}: {a}}, nil)
	res := mkResult(map[query.BinKey][]float64{{A: 0}: {math.Nextafter(a, math.Inf(1))}}, nil)
	if m := Evaluate(res, gt, false); m.OutOfMargin != 0 {
		t.Errorf("OutOfMargin = %d, want 0", m.OutOfMargin)
	}
}

func TestMargins(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{
		{A: 0}: {100}, {A: 1}: {100},
	}, nil)
	res := mkResult(
		map[query.BinKey][]float64{{A: 0}: {105}, {A: 1}: {90}},
		map[query.BinKey][]float64{{A: 0}: {10}, {A: 1}: {5}},
	)
	m := Evaluate(res, gt, false)
	// Relative margins: 10/105 and 5/90.
	want := (10.0/105 + 5.0/90) / 2
	if math.Abs(m.MarginAvg-want) > 1e-12 {
		t.Errorf("MarginAvg = %v, want %v", m.MarginAvg, want)
	}
	// Bin 1: |90-100| = 10 > 5 → out of margin.
	if m.OutOfMargin != 1 {
		t.Errorf("OutOfMargin = %d, want 1", m.OutOfMargin)
	}
}

func TestExtraBinNotInGroundTruth(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{{A: 0}: {10}}, nil)
	res := mkResult(map[query.BinKey][]float64{
		{A: 0}: {10}, {A: 5}: {3},
	}, nil)
	m := Evaluate(res, gt, false)
	if m.MissingBins != 0 {
		t.Error("delivered superset should have no missing bins")
	}
	// The phantom bin counts against SMAPE and out-of-margin.
	if m.SMAPE <= 0 {
		t.Error("phantom bin should hurt SMAPE")
	}
	if m.OutOfMargin != 1 {
		t.Errorf("phantom bin with zero margin should be out of margin: %d", m.OutOfMargin)
	}
}

func TestMultiAggregateElements(t *testing.T) {
	gt := mkResult(map[query.BinKey][]float64{{A: 0}: {100, 50}}, nil)
	res := mkResult(map[query.BinKey][]float64{{A: 0}: {110, 45}}, nil)
	m := Evaluate(res, gt, false)
	// Two elements: 0.1 and 0.1 → mean 0.1.
	if math.Abs(m.RelErrAvg-0.1) > 1e-12 {
		t.Errorf("RelErrAvg = %v", m.RelErrAvg)
	}
}

func TestMeanStdev(t *testing.T) {
	mean, sd := meanStdev(nil)
	if !math.IsNaN(mean) || !math.IsNaN(sd) {
		t.Error("empty input should be NaN")
	}
	mean, sd = meanStdev([]float64{5})
	if mean != 5 || sd != 0 {
		t.Error("single element wrong")
	}
	mean, sd = meanStdev([]float64{1, 3})
	if mean != 2 || math.Abs(sd-math.Sqrt2) > 1e-12 {
		t.Errorf("mean=%v sd=%v", mean, sd)
	}
}
