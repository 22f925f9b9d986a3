package stats

import (
	"errors"
	"math"
)

// Matrix is a dense row-major square-or-rectangular matrix of float64.
// It is deliberately minimal: the data scaler needs covariance estimation,
// Cholesky factorization and matrix-vector products, nothing more.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// LowerRowDot returns (L·x)_i = Σ_{j≤i} L_ij·x_j assuming m is lower
// triangular, accumulated from 0 in j order. It is the copula generator's
// one definition of this product: the generated table is pinned bit for
// bit, so every caller must round exactly alike.
func (m *Matrix) LowerRowDot(i int, x []float64) float64 {
	row := m.Data[i*m.Cols : i*m.Cols+i+1]
	var s float64
	for j, v := range row {
		s += v * x[j]
	}
	return s
}

// Covariance estimates the sample covariance matrix of the given columns.
// cols is a slice of equally long attribute vectors (column-major data).
// The unbiased (n-1) estimator is used. It returns an error when fewer than
// two observations are available or columns are unequal length.
func Covariance(cols [][]float64) (*Matrix, error) {
	d := len(cols)
	if d == 0 {
		return nil, errors.New("stats: covariance of zero columns")
	}
	n := len(cols[0])
	for _, c := range cols {
		if len(c) != n {
			return nil, errors.New("stats: covariance columns of unequal length")
		}
	}
	if n < 2 {
		return nil, errors.New("stats: covariance needs at least two observations")
	}

	means := make([]float64, d)
	for j, c := range cols {
		var s float64
		for _, v := range c {
			s += v
		}
		means[j] = s / float64(n)
	}

	m := NewMatrix(d, d)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			var s float64
			ca, cb := cols[a], cols[b]
			ma, mb := means[a], means[b]
			for i := 0; i < n; i++ {
				s += (ca[i] - ma) * (cb[i] - mb)
			}
			cov := s / float64(n-1)
			m.Set(a, b, cov)
			m.Set(b, a, cov)
		}
	}
	return m, nil
}

// CorrelationFromCovariance converts a covariance matrix to a correlation
// matrix. Zero-variance attributes get unit diagonal and zero off-diagonals
// so that the Cholesky factorization stays well defined.
func CorrelationFromCovariance(cov *Matrix) *Matrix {
	d := cov.Rows
	r := NewMatrix(d, d)
	std := make([]float64, d)
	for i := 0; i < d; i++ {
		std[i] = math.Sqrt(cov.At(i, i))
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				r.Set(i, j, 1)
				continue
			}
			if std[i] == 0 || std[j] == 0 {
				r.Set(i, j, 0)
				continue
			}
			c := cov.At(i, j) / (std[i] * std[j])
			// Clamp numerical noise so the matrix stays a valid correlation matrix.
			if c > 1 {
				c = 1
			} else if c < -1 {
				c = -1
			}
			r.Set(i, j, c)
		}
	}
	return r
}

// Cholesky computes the lower-triangular factor L with M = L·Lᵀ. If the
// matrix is not positive definite it retries with progressively larger
// diagonal jitter (up to maxJitter of the mean diagonal), which is the
// standard remedy for near-singular empirical correlation matrices. It
// returns an error if factorization fails even with jitter.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("stats: cholesky of non-square matrix")
	}
	d := m.Rows
	var meanDiag float64
	for i := 0; i < d; i++ {
		meanDiag += m.At(i, i)
	}
	meanDiag /= float64(d)
	if meanDiag <= 0 {
		meanDiag = 1
	}

	for _, jitterFrac := range []float64{0, 1e-12, 1e-9, 1e-6, 1e-3} {
		l, ok := tryCholesky(m, jitterFrac*meanDiag)
		if ok {
			return l, nil
		}
	}
	return nil, errors.New("stats: matrix is not positive definite (even with jitter)")
}

func tryCholesky(m *Matrix, jitter float64) (*Matrix, bool) {
	d := m.Rows
	l := NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if i == j {
				v := m.At(i, i) + jitter - s
				if v <= 0 {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(v))
			} else {
				l.Set(i, j, (m.At(i, j)-s)/l.At(j, j))
			}
		}
	}
	return l, true
}
