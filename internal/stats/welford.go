package stats

import "math"

// Welford accumulates mean and variance in one pass using Welford's
// algorithm. The engine's SUM/AVG accumulator is shifted moments
// (engine.Moments), which fold without a divide; Welford stays as the
// numeric oracle its accuracy tests compare against.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge combines another accumulator into this one (parallel variant of
// Welford, Chan et al.). Used when progressive chunks are folded by worker
// goroutines and merged at poll time.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}

// State exposes the raw accumulator moments (n, mean, M2).
func (w *Welford) State() (n int64, mean, m2 float64) { return w.n, w.mean, w.m2 }

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns n·mean, the running sum.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Variance returns the unbiased sample variance (0 when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdErr returns the standard error of the mean (0 when n < 2).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.Variance() / float64(w.n))
}

// MeanCI returns the half-width of the confidence interval around the mean
// for the given z critical value.
func (w *Welford) MeanCI(z float64) float64 { return z * w.StdErr() }

// FractionCI returns the half-width of the CLT interval for estimating a
// population total from a sample proportion: the bin's count estimate is
// N·p̂ with p̂ = k/n, so the margin on the scaled count is
// z·N·sqrt(p̂(1-p̂)/n).
func FractionCI(k, n int64, populationN float64, z float64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	p := float64(k) / float64(n)
	se := math.Sqrt(p * (1 - p) / float64(n))
	return z * populationN * se
}
