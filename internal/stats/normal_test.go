package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{0.9986501019683699, 3},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileExtremes(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
}

// Property: Quantile is the inverse of CDF across the useful range.
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.0001 + 0.9998*rng.Float64()
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.959963984540054) > 1e-9 {
		t.Errorf("ZScore(0.95) = %v", z)
	}
	if _, err := ZScore(0); err == nil {
		t.Error("ZScore(0) should error")
	}
	if _, err := ZScore(1); err == nil {
		t.Error("ZScore(1) should error")
	}
}
