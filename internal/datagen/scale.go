package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"idebench/internal/dataset"
	"idebench/internal/stats"
)

// Scaler grows a seed table to arbitrary size with the paper's copula
// procedure (Sec. 4.2): fit a correlation structure on a random sample of
// the seed, then per generated tuple draw a vector of standard normals,
// induce correlation through the Cholesky factor, map to uniforms via Φ and
// through each attribute's empirical inverse CDF back to the data domain.
//
// Deviations from the paper's one-paragraph sketch, for numerical
// robustness:
//
//   - the covariance is computed on normal scores (rank-transformed sample)
//     rather than raw values, i.e. a Gaussian copula fit, which is
//     insensitive to heavy-tailed marginals such as dep_delay;
//   - nominal attributes participate through their dictionary codes with
//     dithered ranks, and map back through a frequency-preserving discrete
//     inverse CDF.
type Scaler struct {
	schema  *dataset.Schema
	name    string
	chol    *stats.Matrix
	quantQ  []*stats.EmpiricalCDF // per attribute, nil for nominal
	nomQ    []*stats.DiscreteCDF  // per attribute, nil for quantitative
	nomDict []*dataset.Dict       // original dictionaries (shared with output)
}

// SampleCap bounds the seed sample used to fit the copula.
const SampleCap = 20000

// NewScaler fits a scaler on the seed table.
func NewScaler(seed *dataset.Table, rngSeed int64) (*Scaler, error) {
	n := seed.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("datagen: seed table needs >= 2 rows, has %d", n)
	}
	rng := rand.New(rand.NewSource(rngSeed))
	idx := stats.ReservoirSample(rng, n, SampleCap)
	m := len(idx)
	d := seed.Schema.Len()

	s := &Scaler{
		schema:  seed.Schema,
		name:    seed.Name,
		quantQ:  make([]*stats.EmpiricalCDF, d),
		nomQ:    make([]*stats.DiscreteCDF, d),
		nomDict: make([]*dataset.Dict, d),
	}

	// Build per-attribute sample vectors and marginal inverse CDFs.
	scores := make([][]float64, d)
	for j, colField := range seed.Schema.Fields {
		col := seed.Columns[j]
		raw := make([]float64, m)
		if colField.Kind == dataset.Quantitative {
			for i, r := range idx {
				raw[i] = col.Nums[r]
			}
			ecdf, err := stats.NewEmpiricalCDF(raw)
			if err != nil {
				return nil, err
			}
			s.quantQ[j] = ecdf
		} else {
			counts := make([]int, col.Dict.Len())
			for i, r := range idx {
				code := col.Codes[r]
				raw[i] = float64(code)
				counts[code]++
			}
			codes := make([]uint32, col.Dict.Len())
			for c := range codes {
				codes[c] = uint32(c)
			}
			dcdf, err := stats.NewDiscreteCDF(codes, counts)
			if err != nil {
				return nil, err
			}
			s.nomQ[j] = dcdf
			s.nomDict[j] = col.Dict
		}
		scores[j] = normalScores(raw, rng)
	}

	cov, err := stats.Covariance(scores)
	if err != nil {
		return nil, err
	}
	corr := stats.CorrelationFromCovariance(cov)
	chol, err := stats.Cholesky(corr)
	if err != nil {
		return nil, err
	}
	s.chol = chol
	return s, nil
}

// normalScores rank-transforms a sample to standard normal quantiles,
// breaking ties with random dithering so that heavily tied (nominal)
// attributes do not collapse the correlation estimate.
func normalScores(raw []float64, rng *rand.Rand) []float64 {
	n := len(raw)
	type pair struct {
		v float64
		t float64 // dither for tie-breaking
		i int
	}
	ps := make([]pair, n)
	for i, v := range raw {
		ps[i] = pair{v: v, t: rng.Float64(), i: i}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].v != ps[b].v {
			return ps[a].v < ps[b].v
		}
		return ps[a].t < ps[b].t
	})
	out := make([]float64, n)
	for rank, p := range ps {
		u := (float64(rank) + 0.5) / float64(n)
		out[p.i] = stats.NormalQuantile(u)
	}
	return out
}

// Generate produces a new table with rows tuples following the fitted
// distribution. The output shares the seed's dictionaries so nominal codes
// remain comparable.
func (s *Scaler) Generate(rows int, rngSeed int64) (*dataset.Table, error) {
	if rows < 0 {
		return nil, fmt.Errorf("datagen: negative row count %d", rows)
	}
	rng := rand.New(rand.NewSource(rngSeed))
	d := s.schema.Len()
	b := dataset.NewBuilder(s.name, s.schema, rows)
	for j := range s.schema.Fields {
		if s.nomDict[j] != nil {
			b.SetDict(j, s.nomDict[j])
		}
	}

	w := make([]float64, d)
	z := make([]float64, d)
	for i := 0; i < rows; i++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		s.chol.MulVecLowerInto(z, w)
		for j := range s.schema.Fields {
			u := stats.NormalCDF(z[j])
			if s.quantQ[j] != nil {
				b.AppendNum(j, s.quantQ[j].Quantile(u))
			} else {
				b.AppendCode(j, s.nomQ[j].Quantile(u))
			}
		}
	}
	return b.Build()
}

// ScaleTable is the one-call convenience used by the CLI: fit on seed and
// generate rows tuples (up- or down-sampling the dataset, paper Sec. 4.6).
func ScaleTable(seed *dataset.Table, rows int, rngSeed int64) (*dataset.Table, error) {
	s, err := NewScaler(seed, rngSeed)
	if err != nil {
		return nil, err
	}
	return s.Generate(rows, rngSeed+1)
}
