package engine

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// bigPrec is the oracle's precision: 256 bits round a sum of 1e5 terms by
// under 1e-70 of its largest term, far below the 1e-9 tolerances checked.
const bigPrec = 256

// exactMoments is the two-pass math/big oracle of one bin: the exact sum,
// the mean, and Σ(x−mean)² about that mean.
func exactMoments(xs []float64) (sum, mean, m2 float64) {
	s := new(big.Float).SetPrec(bigPrec)
	for _, x := range xs {
		s.Add(s, big.NewFloat(x).SetPrec(bigPrec))
	}
	mu := new(big.Float).SetPrec(bigPrec).Quo(s, new(big.Float).SetPrec(bigPrec).SetInt64(int64(len(xs))))
	q := new(big.Float).SetPrec(bigPrec)
	for _, x := range xs {
		d := new(big.Float).SetPrec(bigPrec).Sub(big.NewFloat(x).SetPrec(bigPrec), mu)
		q.Add(q, d.Mul(d, d))
	}
	sum, _ = s.Float64()
	mean, _ = mu.Float64()
	m2, _ = q.Float64()
	return sum, mean, m2
}

// momentErrs is the worst error seen per read-out, in the units the
// tolerances are stated in: mean and sum relative to max(1, |v|), M2
// relative to the true M2.
type momentErrs struct{ mean, sum, m2 float64 }

func (e *momentErrs) note(mean, sum, m2 float64) {
	e.mean, e.sum, e.m2 = max(e.mean, mean), max(e.sum, sum), max(e.m2, m2)
}

func absErr(got, want float64) float64 { return math.Abs(got-want) / math.Max(1, math.Abs(want)) }

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// momentTol is the bench's sumTolerance, applied to every read-out of a
// bin's moments.
const momentTol = 1e-9

// binTruth is one bin's SUM/AVG input as the oracles see it: its row count,
// the math/big values and stats.Welford's, folding the values in row order.
type binTruth struct {
	n                int64
	sum, mean, m2    float64
	wSum, wMean, wM2 float64
}

// binTruths runs the oracles over each bin's aggregate inputs, collected in
// row order through the scalar reference closures; entries of aggregates
// other than SUM/AVG stay empty.
func binTruths(plan *Compiled) map[query.BinKey][]binTruth {
	vals := make(map[query.BinKey][][]float64)
	in := make([]float64, plan.NumAggs())
	for row := 0; row < plan.NumRows; row++ {
		if !plan.Matches(row) {
			continue
		}
		key := plan.BinKey(row)
		plan.AggInput(row, in)
		if vals[key] == nil {
			vals[key] = make([][]float64, len(in))
		}
		for a, v := range in {
			vals[key][a] = append(vals[key][a], v)
		}
	}
	out := make(map[query.BinKey][]binTruth, len(vals))
	for key, xss := range vals {
		out[key] = make([]binTruth, len(xss))
		for a, xs := range xss {
			if f := plan.Query.Aggs[a].Func; f != query.Sum && f != query.Avg {
				continue
			}
			bt := &out[key][a]
			bt.n = int64(len(xs))
			bt.sum, bt.mean, bt.m2 = exactMoments(xs)
			var w stats.Welford
			for _, x := range xs {
				w.Add(x)
			}
			_, bt.wMean, bt.wM2 = w.State()
			bt.wSum = w.Sum()
		}
	}
	return out
}

// checkMoments compares the moments of every SUM/AVG aggregate of every bin
// of g with the oracles. It returns the worst errors of the shifted moments
// and of Welford against the exact values.
func checkMoments(t *testing.T, label string, g *GroupState, want map[query.BinKey][]binTruth) (shifted, welford momentErrs) {
	t.Helper()
	g.ForEachBin(func(key query.BinKey, acc Accum) {
		for a, op := range g.plan.Query.Aggs {
			if op.Func != query.Sum && op.Func != query.Avg {
				continue
			}
			bt := want[key][a]
			if bt.n != acc.N {
				t.Fatalf("%s bin %v: %d rows, oracle has %d", label, key, acc.N, bt.n)
			}
			m := acc.Moments[a]
			mean, sum, m2 := m.Mean(acc.N), m.Sum(acc.N), m.M2(acc.N)
			shifted.note(absErr(mean, bt.mean), absErr(sum, bt.sum), relErr(m2, bt.m2))
			welford.note(absErr(bt.wMean, bt.mean), absErr(bt.wSum, bt.sum), relErr(bt.wM2, bt.m2))
			if absErr(mean, bt.mean) > momentTol || absErr(sum, bt.sum) > momentTol || relErr(m2, bt.m2) > momentTol {
				t.Errorf("%s bin %v agg %d (n=%d): mean %v sum %v M2 %v, exact %v %v %v",
					label, key, a, acc.N, mean, sum, m2, bt.mean, bt.sum, bt.m2)
			}
			if bt.m2 == 0 && m2 != 0 {
				t.Errorf("%s bin %v agg %d: constant bin has M2 %v, want exactly 0", label, key, a, m2)
			}
			if absErr(mean, bt.wMean) > momentTol || absErr(sum, bt.wSum) > momentTol {
				t.Errorf("%s bin %v agg %d: mean %v sum %v, Welford %v %v", label, key, a, mean, sum, bt.wMean, bt.wSum)
			}
		}
	})
	return shifted, welford
}

// TestMomentsMatchExactOracle is the accuracy wall of the shifted-moments
// accumulator: on TestVectorizedMatchesScalar's randomized schemas and on
// pinned bins that stress it — a 1e9 offset under unit noise, a constant
// bin, a first row 1000σ from the rest, an integer-valued column — every
// bin's mean and sum are within 1e-9·max(1, |v|) of a math/big two-pass
// oracle, its M2 within 1e-9 relative, and a constant bin's M2 exactly 0,
// for a whole scan, a split scan merged, and the merged partials of the two
// halves folded as a coordinator folds them.
//
// Measured worst cases (linux/amd64, whole, merged and folded states;
// Welford over the whole bin), shifted moments vs Welford:
//   - randomized schemas: mean 1.3e-12 vs 2.9e-14, sum 1.8e-12 vs 1.1e-13,
//     M2 2.2e-12 vs 3.4e-12 — where a bin's first value lies far from a
//     mean near 0 (y is uniform on ±5000), S1 sums terms of size |K−mean|
//     and carries that sum's rounding, which Welford's running mean avoids;
//   - 1e9 offset: mean 0 vs 3.8e-15, sum 0 vs 3.9e-15, M2 7.0e-11 vs 2.4e-8
//     (Welford is past the tolerance here; its errors are only logged);
//   - constant: 0 everywhere, both;
//   - first-row 1000σ outlier: mean 4.8e-12 vs 3e-17, sum 3.6e-10 vs
//     2.2e-15, M2 2.4e-10 vs 2.2e-14 — the weak case of a shift that far
//     from the data, inside the tolerance at n = 1e5;
//   - integer-valued: 0 everywhere vs mean 3.7e-15, sum 3.7e-15, M2 1.3e-14.
func TestMomentsMatchExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var shifted, welford momentErrs
	check := func(label string, db *dataset.Database, q *query.Query) {
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := binTruths(plan)
		whole := NewGroupState(plan)
		whole.ScanRange(0, plan.NumRows)
		s, w := checkMoments(t, label+" whole", whole, want)
		shifted.note(s.mean, s.sum, s.m2)
		welford.note(w.mean, w.sum, w.m2)
		if plan.NumRows < 2 {
			return
		}
		split := 1 + rng.Intn(plan.NumRows-1)
		a, b := NewGroupState(plan), NewGroupState(plan)
		a.ScanRange(0, split)
		b.ScanRange(split, plan.NumRows)
		fold := NewPartialFold(q.Aggs)
		n := int64(plan.NumRows)
		fold.Add(a.Partial(int64(split), n, n, false))
		fold.Add(b.Partial(n-int64(split), n, n, false))
		a.Merge(b)
		s, _ = checkMoments(t, label+" merged", a, want)
		shifted.note(s.mean, s.sum, s.m2)
		folded := NewGroupState(plan)
		folded.t = fold.t
		s, _ = checkMoments(t, label+" folded", folded, want)
		shifted.note(s.mean, s.sum, s.m2)
	}

	for trial := 0; trial < 100; trial++ {
		normalized := rng.Intn(3) == 0
		db := randomDB(t, rng, rng.Intn(3*BatchRows), normalized)
		q := randomQuery(rng, normalized)
		fixFilterFields(q)
		check(fmt.Sprintf("trial %d", trial), db, q)
	}
	t.Logf("randomized: worst shifted %+v, Welford %+v", shifted, welford)

	// Pinned bins, one per value of g, each of n rows in row order.
	const n = 100_000
	pinned := []struct {
		name string
		v    func(i int) float64
	}{
		{"offset", func(int) float64 { return 1e9 + rng.NormFloat64() }},
		{"constant", func(int) float64 { return 42.125 }},
		{"outlier", func(i int) float64 {
			if i == 0 {
				return 1000
			}
			return rng.NormFloat64()
		}},
		{"integer", func(int) float64 { return float64(rng.Intn(24)) }},
	}
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "g", Kind: dataset.Nominal},
		{Name: "v", Kind: dataset.Quantitative},
	})
	for _, p := range pinned {
		b := dataset.NewBuilder("fact", schema, n)
		for i := 0; i < n; i++ {
			b.AppendString(0, p.name)
			b.AppendNum(1, p.v(i))
		}
		fact, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		shifted, welford = momentErrs{}, momentErrs{}
		check(p.name, &dataset.Database{Fact: fact}, &query.Query{VizName: "v", Table: "fact",
			Bins: []query.Binning{{Field: "g", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "v"}, {Func: query.Sum, Field: "v"}}})
		t.Logf("%s: worst shifted %+v, Welford %+v", p.name, shifted, welford)
	}
}

// TestIntegerSumBitwiseAcrossPaths: SUM of an integer-valued column reads
// out as n·K + S1, every term of which is an exact integer, so the scalar
// path, the batch path and any split of the scan merged back agree bitwise
// — and equal the exact sum. Under the Welford accumulator (n·mean) the
// scalar path alone read 48333.000000000044 for a bin whose sum is 48333.
func TestIntegerSumBitwiseAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const rows = 5*BatchRows + 123
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "dep_hour", Kind: dataset.Quantitative},
	})
	b := dataset.NewBuilder("fact", schema, rows)
	want := make(map[string]int64)
	for i := 0; i < rows; i++ {
		c, h := fmt.Sprintf("c%d", rng.Intn(5)), rng.Intn(24)
		b.AppendString(0, c)
		b.AppendNum(1, float64(h))
		want[c] += int64(h)
	}
	fact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(&dataset.Database{Fact: fact}, &query.Query{VizName: "v", Table: "fact",
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Sum, Field: "dep_hour"}}})
	if err != nil {
		t.Fatal(err)
	}
	scalar := NewGroupState(plan)
	scalar.ScanRangeScalar(0, rows)
	ref := scalar.SnapshotExact()
	for key, bv := range ref.Bins {
		if exact := float64(want[plan.BinDicts[0].Value(uint32(key.A))]); bv.Values[0] != exact {
			t.Fatalf("bin %v: scalar SUM %v, exact %v", key, bv.Values[0], exact)
		}
	}
	batch := NewGroupState(plan)
	batch.ScanRange(0, rows)
	paths := map[string]*GroupState{"batch": batch}
	for _, split := range []int{1, BatchRows - 1, BatchRows, 2*BatchRows + 777, rows - 1} {
		a, b := NewGroupState(plan), NewGroupState(plan)
		a.ScanRange(0, split)
		b.ScanRange(split, rows)
		a.Merge(b)
		paths[fmt.Sprintf("split at %d", split)] = a
	}
	for name, g := range paths {
		got := g.SnapshotExact()
		for key, bv := range ref.Bins {
			if math.Float64bits(got.Bins[key].Values[0]) != math.Float64bits(bv.Values[0]) {
				t.Errorf("%s bin %v: SUM %v, scalar %v", name, key, got.Bins[key].Values[0], bv.Values[0])
			}
		}
	}
}
