// Package stats provides the numerical building blocks used across
// IDEBench-Go: normal distribution functions, covariance and Cholesky
// factorization for the copula-based data scaler, empirical CDFs, running
// moment accumulators (Welford), confidence intervals, and skewed discrete
// samplers for the synthetic seed generator.
package stats

import (
	"errors"
	"math"
)

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function evaluated at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0,1) using the Acklam rational
// approximation refined by one step of Halley's method. The result is
// accurate to ~1e-15, far beyond what the benchmark needs.
//
// It returns -Inf for p<=0 and +Inf for p>=1.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}

	// Coefficients for the Acklam approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ZScore returns the two-sided z critical value for the given confidence
// level, e.g. ZScore(0.95) ≈ 1.96. Confidence levels outside (0,1) return
// an error.
func ZScore(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, errors.New("stats: confidence level must be in (0,1)")
	}
	return NormalQuantile(0.5 + confidence/2), nil
}
