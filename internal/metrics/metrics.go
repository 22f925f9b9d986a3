// Package metrics implements the benchmark's per-query quality metrics
// (paper Sec. 4.7): time-requirement violation, missing bins, mean relative
// error, SMAPE, cosine distance, mean relative margin of error,
// out-of-margin count, and bias.
package metrics

import (
	"math"

	"idebench/internal/query"
)

// QueryMetrics holds the evaluation of one query result against its ground
// truth. Error fields are NaN when undefined (e.g. no result delivered);
// aggregation skips NaNs, matching the paper's reporting rule that the
// error distribution covers only queries that did not violate the TR.
type QueryMetrics struct {
	// TRViolated is true when no result was fetchable at the time
	// requirement deadline.
	TRViolated bool
	// HasResult reports whether any result was delivered (TR violations
	// have none).
	HasResult bool

	// BinsDelivered / BinsInGT are the raw bin counts ("bins delivered",
	// "bins in gt" of the detailed report).
	BinsDelivered int
	BinsInGT      int
	// MissingBins is |missing| / |groundtruth| in [0,1].
	MissingBins float64

	// RelErrAvg / RelErrStdev summarize the per-bin relative errors
	// |F−A|/|A| over delivered bins (bins with A=0 are skipped — the paper
	// notes the relative error is undefined there).
	RelErrAvg   float64
	RelErrStdev float64
	// SMAPE is the Symmetric Mean Absolute Percentage Error over delivered
	// bins, defined for A=0, bounded in [0,1].
	SMAPE float64
	// CosineDistance measures shape deviation over the union of bins
	// (missing values as 0).
	CosineDistance float64
	// MarginAvg / MarginStdev summarize the relative margins of error
	// (margin/|estimate|) over delivered bins with non-zero estimates.
	MarginAvg   float64
	MarginStdev float64
	// OutOfMargin counts delivered bins whose true value falls outside the
	// reported confidence interval ("bins ofm").
	OutOfMargin int
	// Bias is Σ(delivered values)/Σ(true values for those bins); >1 means
	// systematic over-estimation.
	Bias float64

	// StalenessRows is the live-ingestion staleness of the result: how many
	// ingested rows the freshest data had that the delivered result's
	// watermark does not reflect (0 = perfectly fresh). It is -1 outside
	// ingest-aware runs and for queries that delivered nothing (records
	// must stay JSON-marshalable, which rules out the NaN convention the
	// error metrics use); aggregations skip negative values, so the
	// staleness distribution covers delivered results only.
	StalenessRows float64
}

// Violated returns the canonical metrics value for a query that delivered
// nothing by the deadline: one whole result missing, every error metric
// undefined.
func Violated(gt *query.Result) QueryMetrics {
	return QueryMetrics{
		TRViolated:     true,
		HasResult:      false,
		BinsInGT:       len(gt.Bins),
		MissingBins:    1,
		RelErrAvg:      math.NaN(),
		RelErrStdev:    math.NaN(),
		SMAPE:          math.NaN(),
		CosineDistance: math.NaN(),
		MarginAvg:      math.NaN(),
		MarginStdev:    math.NaN(),
		Bias:           math.NaN(),
		StalenessRows:  -1,
	}
}

// Evaluate compares a delivered result against ground truth. Each (bin,
// aggregate) pair is one element of the error distributions. trViolated
// should be true when the result was fetched after the deadline from an
// engine that still counts as violating (the driver normally passes false
// here and uses Violated for nil results).
func Evaluate(res, gt *query.Result, trViolated bool) QueryMetrics {
	m := QueryMetrics{TRViolated: trViolated, HasResult: true, BinsInGT: len(gt.Bins),
		StalenessRows: -1}
	if res == nil {
		return Violated(gt)
	}
	m.BinsDelivered = len(res.Bins)

	// Missing bins: ground-truth bins with no delivered counterpart.
	missing := 0
	for k := range gt.Bins {
		if _, ok := res.Bins[k]; !ok {
			missing++
		}
	}
	if len(gt.Bins) > 0 {
		m.MissingBins = float64(missing) / float64(len(gt.Bins))
	}

	var (
		relErrs    []float64
		smapeSum   float64
		smapeN     int
		margins    []float64
		sumF, sumA float64
		outOfM     int
	)
	// Iterate delivered bins in key order: the error distributions are
	// accumulated in floating point, and a map-iteration order would make
	// identical runs differ in the last bits — the multi-user determinism
	// tests compare records byte-for-byte.
	for _, k := range res.SortedKeys() {
		rv := res.Bins[k]
		gv, ok := gt.Bins[k]
		if !ok {
			// A bin the ground truth does not have: treat its true value as
			// zero for SMAPE/bias purposes.
			for ai := range rv.Values {
				f := rv.Values[ai]
				if f != 0 {
					smapeSum += 1 // |F-0|/(|F|+0) = 1
				}
				smapeN++
				sumF += f
				if math.Abs(f) > rv.Margins[ai] {
					outOfM++
				}
			}
			continue
		}
		for ai := range rv.Values {
			f, a := rv.Values[ai], gv.Values[ai]
			sumF += f
			sumA += a
			if a != 0 {
				relErrs = append(relErrs, math.Abs(f-a)/math.Abs(a))
			}
			if math.Abs(f)+math.Abs(a) > 0 {
				smapeSum += math.Abs(f-a) / (math.Abs(f) + math.Abs(a))
			}
			smapeN++
			if f != 0 {
				margins = append(margins, rv.Margins[ai]/math.Abs(f))
			}
			// The tolerance is relative: an exact answer summed in another
			// row order differs from the ground truth in the last bits.
			if math.Abs(f-a) > rv.Margins[ai]+1e-9*math.Max(1, math.Abs(a)) {
				outOfM++
			}
		}
	}

	m.RelErrAvg, m.RelErrStdev = meanStdev(relErrs)
	if smapeN > 0 {
		m.SMAPE = smapeSum / float64(smapeN)
	} else {
		m.SMAPE = math.NaN()
	}
	m.MarginAvg, m.MarginStdev = meanStdev(margins)
	m.OutOfMargin = outOfM
	if sumA != 0 {
		m.Bias = sumF / sumA
	} else {
		m.Bias = math.NaN()
	}
	m.CosineDistance = cosineDistance(res, gt)
	return m
}

// cosineDistance computes 1 − cos(F, A) over the union of bins using the
// first aggregate (the visualized series); absent bins contribute 0
// (paper: "we set the value at each missing bin to zero"). Accumulation
// runs in sorted key order so repeated evaluations are bit-identical.
func cosineDistance(res, gt *query.Result) float64 {
	var dot, nf, na float64
	seen := map[query.BinKey]bool{}
	accum := func(k query.BinKey) {
		if seen[k] {
			return
		}
		seen[k] = true
		var f, a float64
		if rv, ok := res.Bins[k]; ok && len(rv.Values) > 0 {
			f = rv.Values[0]
		}
		if gv, ok := gt.Bins[k]; ok && len(gv.Values) > 0 {
			a = gv.Values[0]
		}
		dot += f * a
		nf += f * f
		na += a * a
	}
	for _, k := range res.SortedKeys() {
		accum(k)
	}
	for _, k := range gt.SortedKeys() {
		accum(k)
	}
	if nf == 0 || na == 0 {
		if nf == na {
			return 0 // both empty: identical shapes
		}
		return 1
	}
	d := 1 - dot/(math.Sqrt(nf)*math.Sqrt(na))
	if d < 0 {
		d = 0 // numerical noise
	}
	return d
}

func meanStdev(xs []float64) (mean, stdev float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	mean = s / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(v / float64(len(xs)-1))
}
