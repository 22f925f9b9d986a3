package datagen

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/stats"
)

func TestGenerateSeedBasics(t *testing.T) {
	tbl, err := GenerateSeed(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Name != "flights" {
		t.Errorf("name = %q", tbl.Name)
	}
	// Value range sanity.
	for _, c := range []struct {
		col    string
		lo, hi float64
	}{
		{"dep_hour", 0, 23},
		{"month", 1, 12},
		{"day_of_week", 1, 7},
		{"distance", 50, 5000},
		{"air_time", 10, 1000},
	} {
		nums := tbl.Column(c.col).Nums
		for _, v := range nums {
			if v < c.lo || v > c.hi {
				t.Errorf("%s value %v outside [%v,%v]", c.col, v, c.lo, c.hi)
				break
			}
		}
	}
}

func TestGenerateSeedDeterministic(t *testing.T) {
	a, err := GenerateSeed(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSeed(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Columns {
		for i := 0; i < 500; i++ {
			if a.Columns[j].ValueString(i) != b.Columns[j].ValueString(i) {
				t.Fatalf("seed generation not deterministic at (%d,%d)", i, j)
			}
		}
	}
	c, err := GenerateSeed(500, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 500 && same; i++ {
		if a.Column("dep_delay").Nums[i] != c.Column("dep_delay").Nums[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different data")
	}
}

func TestGenerateSeedErrors(t *testing.T) {
	if _, err := GenerateSeed(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := GenerateSeed(-5, 1); err == nil {
		t.Error("negative n should error")
	}
}

func TestSeedCorrelations(t *testing.T) {
	tbl, err := GenerateSeed(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	corr := func(a, b string) float64 {
		x, y := tbl.Column(a).Nums, tbl.Column(b).Nums
		cov, err := stats.Covariance([][]float64{x, y})
		if err != nil {
			t.Fatal(err)
		}
		return stats.CorrelationFromCovariance(cov).At(0, 1)
	}
	if c := corr("dep_delay", "arr_delay"); c < 0.6 {
		t.Errorf("dep/arr delay correlation %v, want > 0.6", c)
	}
	if c := corr("distance", "air_time"); c < 0.9 {
		t.Errorf("distance/air_time correlation %v, want > 0.9", c)
	}
}

func TestSeedCarrierSkew(t *testing.T) {
	tbl, err := GenerateSeed(20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	col := tbl.Column("carrier")
	counts := make(map[uint32]int)
	for _, c := range col.Codes {
		counts[c]++
	}
	wn, _ := col.Dict.Lookup("WN")
	qx, _ := col.Dict.Lookup("QX")
	if counts[wn] <= counts[qx]*2 {
		t.Errorf("carrier popularity not skewed: WN=%d QX=%d", counts[wn], counts[qx])
	}
}

func TestScalerPreservesMarginals(t *testing.T) {
	seed, err := GenerateSeed(8000, 11)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ScaleTable(seed, 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.NumRows() != 30000 {
		t.Fatalf("scaled rows = %d", scaled.NumRows())
	}

	// Quantitative marginals: mean and quartiles of dep_delay should be close.
	seedDelay := seed.Column("dep_delay").Nums
	scaledDelay := scaled.Column("dep_delay").Nums
	se, _ := stats.NewEmpiricalCDF(seedDelay)
	sc, _ := stats.NewEmpiricalCDF(scaledDelay)
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9} {
		a, b := se.Quantile(p), sc.Quantile(p)
		if math.Abs(a-b) > 3+0.1*math.Abs(a) {
			t.Errorf("dep_delay q%.2f: seed %v vs scaled %v", p, a, b)
		}
	}

	// Nominal marginals: carrier frequencies within 2 percentage points.
	freq := func(t2 *dataset.Table) map[string]float64 {
		col := t2.Column("carrier")
		m := map[string]float64{}
		for _, c := range col.Codes {
			m[col.Dict.Value(c)]++
		}
		for k := range m {
			m[k] /= float64(t2.NumRows())
		}
		return m
	}
	fs, fc := freq(seed), freq(scaled)
	for k, v := range fs {
		if math.Abs(v-fc[k]) > 0.02 {
			t.Errorf("carrier %s frequency: seed %.3f vs scaled %.3f", k, v, fc[k])
		}
	}
}

// spearman computes the rank (Spearman) correlation of two vectors — the
// quantity a Gaussian copula preserves by construction (Pearson correlation
// is attenuated through heavy-tailed marginals such as dep_delay).
func spearman(t *testing.T, x, y []float64) float64 {
	t.Helper()
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sortByVal(idx, v)
		r := make([]float64, len(v))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	cov, err := stats.Covariance([][]float64{rank(x), rank(y)})
	if err != nil {
		t.Fatal(err)
	}
	return stats.CorrelationFromCovariance(cov).At(0, 1)
}

func sortByVal(idx []int, v []float64) {
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
}

func TestScalerPreservesCorrelation(t *testing.T) {
	seed, err := GenerateSeed(8000, 17)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ScaleTable(seed, 30000, 19)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{
		{"dep_delay", "arr_delay"},
		{"distance", "air_time"},
		{"air_time", "actual_elapsed"},
	}
	for _, p := range pairs {
		a := spearman(t, seed.Column(p[0]).Nums, seed.Column(p[1]).Nums)
		b := spearman(t, scaled.Column(p[0]).Nums, scaled.Column(p[1]).Nums)
		if math.Abs(a-b) > 0.1 {
			t.Errorf("rank correlation %s/%s: seed %.3f vs scaled %.3f", p[0], p[1], a, b)
		}
		if a > 0.5 && b < 0.4 {
			t.Errorf("strong correlation %s/%s lost in scaling: %.3f → %.3f", p[0], p[1], a, b)
		}
	}
}

func TestScalerSharesDictionaries(t *testing.T) {
	seed, err := GenerateSeed(2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ScaleTable(seed, 1000, 29)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Column("carrier").Dict != scaled.Column("carrier").Dict {
		t.Error("scaled table should share the seed's dictionaries")
	}
}

func TestScalerDownsamples(t *testing.T) {
	seed, err := GenerateSeed(5000, 31)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ScaleTable(seed, 100, 37)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumRows() != 100 {
		t.Errorf("downsampled rows = %d", small.NumRows())
	}
}

func TestScalerErrors(t *testing.T) {
	seed, _ := GenerateSeed(100, 1)
	if _, err := ScaleTable(seed, -1, 1); err == nil {
		t.Error("negative rows should error")
	}
	schema := dataset.MustSchema([]dataset.Field{{Name: "x", Kind: dataset.Quantitative}})
	b := dataset.NewBuilder("t", schema, 1)
	b.AppendNum(0, 1)
	tiny, _ := b.Build()
	if _, err := NewScaler(tiny, 1); err == nil {
		t.Error("single-row seed should error")
	}
}

func TestNormalizeDefaultDimensions(t *testing.T) {
	seed, err := GenerateSeed(5000, 41)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Normalize(seed, DefaultDimensions())
	if err != nil {
		t.Fatal(err)
	}
	if !db.IsNormalized() || len(db.Dimensions) != 2 {
		t.Fatal("expected 2 dimensions")
	}
	if db.Fact.NumRows() != 5000 {
		t.Error("fact rows changed")
	}
	// Claimed columns left the fact table; FKs arrived.
	for _, gone := range []string{"carrier", "origin_airport", "origin_state"} {
		if db.Fact.Column(gone) != nil {
			t.Errorf("column %q should have moved to a dimension", gone)
		}
	}
	for _, fk := range []string{"carrier_fk", "origin_fk"} {
		if db.Fact.Column(fk) == nil {
			t.Errorf("FK column %q missing", fk)
		}
	}
	// Unclaimed columns share storage with the input.
	if &db.Fact.Column("dep_delay").Nums[0] != &seed.Column("dep_delay").Nums[0] {
		t.Error("unclaimed column storage should be shared")
	}

	// Round-trip check: resolving carrier through the FK reproduces the
	// original values.
	carrierDim := db.Dimensions[0]
	fk := db.Fact.Column("carrier_fk").Nums
	dimCol := carrierDim.Table.Column("carrier")
	origCol := seed.Column("carrier")
	for i := 0; i < 5000; i += 97 {
		got := dimCol.Dict.Value(dimCol.Codes[int(fk[i])])
		want := origCol.Dict.Value(origCol.Codes[i])
		if got != want {
			t.Fatalf("row %d: carrier %q != %q after normalization", i, got, want)
		}
	}

	// Airports dimension: one row per distinct (airport, state) combo.
	airportsDim := db.Dimensions[1].Table
	if airportsDim.NumRows() > 70 || airportsDim.NumRows() < 30 {
		t.Errorf("airports dimension rows = %d, want ~60", airportsDim.NumRows())
	}
}

func TestNormalizeErrors(t *testing.T) {
	seed, _ := GenerateSeed(100, 43)
	cases := []struct {
		name  string
		specs []DimensionSpec
	}{
		{"incomplete", []DimensionSpec{{Name: "x"}}},
		{"unknown attr", []DimensionSpec{{Name: "x", Attributes: []string{"ghost"}, FKColumn: "fk"}}},
		{"quantitative attr", []DimensionSpec{{Name: "x", Attributes: []string{"dep_delay"}, FKColumn: "fk"}}},
		{"fk collision", []DimensionSpec{{Name: "x", Attributes: []string{"carrier"}, FKColumn: "dep_delay"}}},
		{"double claim", []DimensionSpec{
			{Name: "x", Attributes: []string{"carrier"}, FKColumn: "fk1"},
			{Name: "y", Attributes: []string{"carrier"}, FKColumn: "fk2"},
		}},
		{"too many attrs", []DimensionSpec{{Name: "x", FKColumn: "fk",
			Attributes: []string{"carrier", "origin_airport", "origin_state", "dest_airport", "dest_state"}}}},
	}
	for _, c := range cases {
		if _, err := Normalize(seed, c.specs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNormalizeEmptySpecs(t *testing.T) {
	seed, _ := GenerateSeed(100, 47)
	db, err := Normalize(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.IsNormalized() {
		t.Error("no specs should yield a de-normalized database")
	}
	if db.Fact != seed {
		t.Error("fact table should pass through unchanged")
	}
}

// BenchmarkCopulaScaler measures synthetic tuple generation throughput.
func BenchmarkCopulaScaler(b *testing.B) {
	seed, err := GenerateSeed(10_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	scaler, err := NewScaler(seed, 2)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scaler.Generate(rows, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// generateRowAtATime is the reference Generate must equal bit for bit: the
// row-at-a-time loop the pipeline replaced, one row's normals drawn, then
// correlated, then mapped per attribute.
func generateRowAtATime(s *Scaler, rows int, rngSeed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(rngSeed))
	d := s.schema.Len()
	b := dataset.NewBuilder(s.name, s.schema, rows)
	for j := range s.schema.Fields {
		if s.nomDict[j] != nil {
			b.SetDict(j, s.nomDict[j])
		}
	}
	w := make([]float64, d)
	for i := 0; i < rows; i++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		for j := range s.schema.Fields {
			var z float64
			for k := 0; k <= j; k++ {
				z += s.chol.At(j, k) * w[k]
			}
			u := stats.NormalCDF(z)
			if s.quantQ[j] != nil {
				b.AppendNum(j, s.quantQ[j].Quantile(u))
			} else {
				b.AppendCode(j, s.nomQ[j].Quantile(u))
			}
		}
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tbl
}

// TestGenerateMatchesRowAtATime: the block pipeline yields exactly the
// reference's table — every float bit and code — at row counts around the
// block boundary and at random sizes, with one worker, with two, and with
// more workers than blocks.
func TestGenerateMatchesRowAtATime(t *testing.T) {
	seed, err := GenerateSeed(3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScaler(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sizes := []int{0, 1, genBlock - 1, genBlock, genBlock + 1, rng.Intn(genBlock), genBlock + rng.Intn(5*genBlock)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for i, rows := range sizes {
			rngSeed := int64(100*procs + i)
			got, err := sc.Generate(rows, rngSeed)
			if err != nil {
				t.Fatal(err)
			}
			want := generateRowAtATime(sc, rows, rngSeed)
			if got.NumRows() != rows {
				t.Fatalf("GOMAXPROCS %d: %d rows, want %d", procs, got.NumRows(), rows)
			}
			for j, g := range got.Columns {
				w := want.Columns[j]
				if g.Dict != w.Dict || !slices.Equal(g.Codes, w.Codes) {
					t.Fatalf("GOMAXPROCS %d, %d rows: nominal column %q differs", procs, rows, g.Field.Name)
				}
				for r := range w.Nums {
					if math.Float64bits(g.Nums[r]) != math.Float64bits(w.Nums[r]) {
						t.Fatalf("GOMAXPROCS %d, %d rows: column %q row %d = %v, want %v", procs, rows, g.Field.Name, r, g.Nums[r], w.Nums[r])
					}
				}
			}
		}
	}
}
