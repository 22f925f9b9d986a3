package datagen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

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
//
// Generate is a two-stage pipeline over blocks of genBlock rows. The
// calling goroutine draws each block's standard normals from the one
// sequential RNG, in row order, so the sequence is exactly the
// row-at-a-time one. GOMAXPROCS workers then map whole blocks into
// disjoint row ranges of presized output columns, one column at a time, so
// a worker reads one inverse-CDF table at a time. Each value goes through
// the same float operations in the same order as a row-at-a-time loop —
// z_j = Σ_{k≤j} L_jk·w_k accumulated from 0 (stats.Matrix.LowerRowDot),
// then Φ, then the marginal's quantile — so the table is bitwise the same
// whatever the worker count. A table of at most one block, such as a
// 500-row ingest batch, is built on the calling goroutine and starts no
// other. A Scaler is read-only after NewScaler and safe for concurrent use.
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

// genBlock is the generator's unit of work. 4096 rows of the 14-attribute
// flights schema are 448 KiB of normals, which with the one inverse-CDF
// table a worker reads at a time (at most SampleCap floats) fits a core's
// L2 cache, while a 2M-row table still splits into about 490 blocks. On
// 50k rows and two cores, 1024 and 16384 both measured about 15% slower.
const genBlock = 4096

// Generate produces a new table with rows tuples following the fitted
// distribution. The output shares the seed's dictionaries so nominal codes
// remain comparable.
func (s *Scaler) Generate(rows int, rngSeed int64) (*dataset.Table, error) {
	if rows < 0 {
		return nil, fmt.Errorf("datagen: negative row count %d", rows)
	}
	rng := rand.New(rand.NewSource(rngSeed))
	d := s.schema.Len()
	cols := make([]*dataset.Column, d)
	for j, f := range s.schema.Fields {
		c := &dataset.Column{Field: f}
		if f.Kind == dataset.Nominal {
			c.Codes, c.Dict = make([]uint32, rows), s.nomDict[j]
		} else {
			c.Nums = make([]float64, rows)
		}
		cols[j] = c
	}
	blocks := (rows + genBlock - 1) / genBlock
	if workers := min(runtime.GOMAXPROCS(0), blocks); workers > 1 {
		s.generateParallel(rng, cols, rows, workers)
	} else {
		w := make([]float64, min(rows, genBlock)*d)
		for lo := 0; lo < rows; lo += genBlock {
			b := w[:(min(lo+genBlock, rows)-lo)*d]
			drawNormals(rng, b)
			s.transform(cols, lo, b)
		}
	}
	return dataset.NewTable(s.name, s.schema, cols)
}

// generateParallel is Generate's pipeline for tables of more than one
// block (see Scaler).
func (s *Scaler) generateParallel(rng *rand.Rand, cols []*dataset.Column, rows, workers int) {
	d := len(cols)
	type block struct {
		lo int
		w  []float64
	}
	// Two buffers per worker, one being mapped and one drawn ahead, so
	// neither side waits while the other has work; returning a buffer to
	// the pool never blocks.
	free := make(chan []float64, 2*workers)
	for range 2 * workers {
		free <- make([]float64, genBlock*d)
	}
	work := make(chan block, workers) // one drawn block queued per worker
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				s.transform(cols, b.lo, b.w)
				free <- b.w[:cap(b.w)]
			}
		}()
	}
	for lo := 0; lo < rows; lo += genBlock {
		w := (<-free)[:(min(lo+genBlock, rows)-lo)*d]
		drawNormals(rng, w)
		work <- block{lo, w}
	}
	close(work)
	wg.Wait()
}

// drawNormals fills w with standard normals in order: row by row, one per
// attribute, the order the row-at-a-time generator drew them in.
func drawNormals(rng *rand.Rand, w []float64) {
	for i := range w {
		w[i] = rng.NormFloat64()
	}
}

// transform maps one block of drawn normals (row-major, one per attribute)
// to output rows [lo, lo+len(w)/d). It goes one column at a time, so only
// that column's inverse CDF is being read, and per value performs the
// row-at-a-time generator's float operations in its order: the correlated
// normal z_j = Σ_{k≤j} L_jk·w_k, then Φ(z_j), then the marginal's quantile.
func (s *Scaler) transform(cols []*dataset.Column, lo int, w []float64) {
	d := len(cols)
	n := len(w) / d
	for j, c := range cols {
		if q := s.quantQ[j]; q != nil {
			out := c.Nums[lo : lo+n]
			for r := range out {
				out[r] = q.Quantile(stats.NormalCDF(s.chol.LowerRowDot(j, w[r*d:])))
			}
		} else {
			q := s.nomQ[j]
			out := c.Codes[lo : lo+n]
			for r := range out {
				out[r] = q.Quantile(stats.NormalCDF(s.chol.LowerRowDot(j, w[r*d:])))
			}
		}
	}
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
