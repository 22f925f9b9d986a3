package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCovarianceSimple(t *testing.T) {
	// Perfectly correlated columns: cov = var.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	m, err := Covariance([][]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.At(0, 0)-2.5) > 1e-12 {
		t.Errorf("var(a) = %v, want 2.5", m.At(0, 0))
	}
	if math.Abs(m.At(0, 1)-5.0) > 1e-12 {
		t.Errorf("cov(a,b) = %v, want 5", m.At(0, 1))
	}
	if m.At(0, 1) != m.At(1, 0) {
		t.Error("covariance matrix not symmetric")
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance(nil); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := Covariance([][]float64{{1}}); err == nil {
		t.Error("expected error for single observation")
	}
	if _, err := Covariance([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged columns")
	}
}

func TestCorrelationFromCovariance(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	cst := []float64{7, 7, 7, 7, 7} // zero variance
	cov, err := Covariance([][]float64{a, b, cst})
	if err != nil {
		t.Fatal(err)
	}
	r := CorrelationFromCovariance(cov)
	if math.Abs(r.At(0, 1)-1) > 1e-12 {
		t.Errorf("corr(a,b) = %v, want 1", r.At(0, 1))
	}
	if r.At(2, 2) != 1 {
		t.Error("zero-variance diagonal should be 1")
	}
	if r.At(0, 2) != 0 {
		t.Error("zero-variance off-diagonal should be 0")
	}
}

func TestCholeskyIdentity(t *testing.T) {
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(l.At(i, j)-want) > 1e-12 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want)
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	// A known SPD matrix.
	m := NewMatrix(3, 3)
	vals := [][]float64{{4, 2, 1}, {2, 3, 0.5}, {1, 0.5, 2}}
	for i := range vals {
		for j := range vals[i] {
			m.Set(i, j, vals[i][j])
		}
	}
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if math.Abs(s-m.At(i, j)) > 1e-10 {
				t.Errorf("LLᵀ[%d][%d] = %v, want %v", i, j, s, m.At(i, j))
			}
		}
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestCholeskyJitterRecoversSingular(t *testing.T) {
	// Rank-deficient correlation matrix (perfect correlation).
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	if _, err := Cholesky(m); err != nil {
		t.Fatalf("jittered cholesky should succeed: %v", err)
	}
}

// Property: Cholesky of a randomly generated SPD matrix A·Aᵀ+I reconstructs it.
func TestCholeskyPropertyReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		a := NewMatrix(d, d)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		spd := NewMatrix(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				var s float64
				for k := 0; k < d; k++ {
					s += a.At(i, k) * a.At(j, k)
				}
				if i == j {
					s += 1
				}
				spd.Set(i, j, s)
			}
		}
		l, err := Cholesky(spd)
		if err != nil {
			return false
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				var s float64
				for k := 0; k < d; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if math.Abs(s-spd.At(i, j)) > 1e-6*(1+math.Abs(spd.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLowerRowDot(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{2, 99, 3, 4}) // the upper entry is never read
	x := []float64{1, 2}
	if a, b := m.LowerRowDot(0, x), m.LowerRowDot(1, x); a != 2 || b != 11 {
		t.Errorf("LowerRowDot = %v, %v; want 2, 11", a, b)
	}
}
