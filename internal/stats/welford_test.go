package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4 → sample variance is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if math.Abs(w.Sum()-40) > 1e-12 {
		t.Errorf("Sum = %v, want 40", w.Sum())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("empty accumulator should be all zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Error("single observation should have zero variance")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := rng.Intn(50), rng.Intn(50)
		var a, b, all Welford
		for i := 0; i < n1; i++ {
			x := rng.NormFloat64() * 100
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rng.NormFloat64()*5 + 50
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if a.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		tol := 1e-8 * (1 + math.Abs(all.Mean()))
		if math.Abs(a.Mean()-all.Mean()) > tol {
			return false
		}
		return math.Abs(a.Variance()-all.Variance()) <= 1e-6*(1+all.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(3)
	a.Merge(b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Errorf("merge into empty: count=%d mean=%v", a.Count(), a.Mean())
	}
	var c Welford
	b.Merge(c) // merging empty is a no-op
	if b.Count() != 2 {
		t.Error("merging empty changed the accumulator")
	}
}

func TestMeanCI(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i % 10))
	}
	ci := w.MeanCI(1.96)
	if ci <= 0 {
		t.Error("CI should be positive")
	}
	manual := 1.96 * math.Sqrt(w.Variance()/100)
	if math.Abs(ci-manual) > 1e-12 {
		t.Errorf("MeanCI = %v, want %v", ci, manual)
	}
}

func TestFractionCI(t *testing.T) {
	if !math.IsInf(FractionCI(0, 0, 100, 1.96), 1) {
		t.Error("n=0 should give infinite margin")
	}
	// p = 0.5, n = 100, N = 1000: margin = 1.96*1000*sqrt(0.25/100) = 98.
	got := FractionCI(50, 100, 1000, 1.96)
	if math.Abs(got-98) > 1e-9 {
		t.Errorf("FractionCI = %v, want 98", got)
	}
	// Larger n shrinks the margin.
	if FractionCI(500, 1000, 1000, 1.96) >= got {
		t.Error("margin should shrink with sample size")
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewZipf(10, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.Draw(rng)]++
	}
	// Heavily skewed: category 0 strictly most popular, all categories seen.
	if counts[0] <= counts[1] || counts[1] <= counts[3] {
		t.Errorf("zipf not decreasing: %v", counts)
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("category %d never drawn", i)
		}
	}
}

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z, err := NewZipf(4, 0) // s=0 → uniform
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[z.Draw(rng)]++
	}
	for _, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("uniform zipf counts skewed: %v", counts)
		}
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Error("expected error for s<0")
	}
}

func TestReservoirSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := ReservoirSample(rng, 100, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, idx := range s {
		if idx < 0 || idx >= 100 {
			t.Errorf("index out of range: %d", idx)
		}
		if seen[idx] {
			t.Errorf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	// k >= n returns everything.
	all := ReservoirSample(rng, 5, 10)
	if len(all) != 5 {
		t.Errorf("k>=n should return n items, got %d", len(all))
	}
}

func TestPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := Permutation(rng, 1000)
	seen := make([]bool, 1000)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// Not the identity permutation (astronomically unlikely).
	identity := true
	for i, v := range p {
		if int(v) != i {
			identity = false
			break
		}
	}
	if identity {
		t.Error("permutation is the identity")
	}
}
