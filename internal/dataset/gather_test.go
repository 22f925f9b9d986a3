package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// gatherTable builds an n-row table with nom nominal columns followed by
// quant quantitative ones, filled from a fixed seed.
func gatherTable(n, nom, quant int) *Table {
	fields := make([]Field, 0, nom+quant)
	for j := 0; j < nom; j++ {
		fields = append(fields, Field{Name: fmt.Sprintf("n%d", j), Kind: Nominal})
	}
	for j := 0; j < quant; j++ {
		fields = append(fields, Field{Name: fmt.Sprintf("q%d", j), Kind: Quantitative})
	}
	vals := make([]string, 17)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	b := NewBuilder("g", MustSchema(fields), n)
	rng := rand.New(rand.NewSource(int64(n*31 + nom*7 + quant)))
	for i := 0; i < n; i++ {
		for j := 0; j < nom; j++ {
			b.AppendString(j, vals[rng.Intn(len(vals))])
		}
		for j := 0; j < quant; j++ {
			b.AppendNum(nom+j, rng.NormFloat64()*100)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tbl
}

// seqGather is the sequential reference both gathers must equal: row i of
// the result is row rows[i] of t, with shared dictionaries.
func seqGather(t *Table, rows []uint32) *Table {
	b := NewBuilder(t.Name, t.Schema, len(rows))
	for j, col := range t.Columns {
		if col.Field.Kind == Nominal {
			b.SetDict(j, col.Dict)
			for _, r := range rows {
				b.AppendCode(j, col.Codes[r])
			}
		} else {
			for _, r := range rows {
				b.AppendNum(j, col.Nums[r])
			}
		}
	}
	tbl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tbl
}

func sameTable(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d rows × %d columns, want %d × %d", what, got.NumRows(), len(got.Columns), want.NumRows(), len(want.Columns))
	}
	for j, g := range got.Columns {
		w := want.Columns[j]
		if g.Field != w.Field || g.Dict != w.Dict {
			t.Fatalf("%s: column %d field or dictionary differs", what, j)
		}
		if len(g.Codes) != len(w.Codes) || len(g.Nums) != len(w.Nums) {
			t.Fatalf("%s: column %d length differs", what, j)
		}
		for i := range w.Codes {
			if g.Codes[i] != w.Codes[i] {
				t.Fatalf("%s: column %d row %d: code %d, want %d", what, j, i, g.Codes[i], w.Codes[i])
			}
		}
		for i := range w.Nums {
			if math.Float64bits(g.Nums[i]) != math.Float64bits(w.Nums[i]) {
				t.Fatalf("%s: column %d row %d: %v, want %v", what, j, i, g.Nums[i], w.Nums[i])
			}
		}
		glo, ghi, gok := g.MinMax()
		wlo, whi, wok := w.MinMax()
		if glo != wlo || ghi != whi || gok != wok {
			t.Fatalf("%s: column %d bounds (%v,%v,%v), want (%v,%v,%v)", what, j, glo, ghi, gok, wlo, whi, wok)
		}
	}
}

// TestGatherMatchesSequential: ReorderTable and SelectRows equal the
// sequential row-by-row copy on random permutations and random subsets, at
// sizes on both sides of the parallel threshold, with 0 rows and with a
// single column of either kind, on one worker and on several.
func TestGatherMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		testGatherMatchesSequential(t)
	}
}

func testGatherMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, gatherMinRows - 1, gatherMinRows, gatherMinRows + 1, 3*gatherMinRows + 17, rng.Intn(4 * gatherMinRows)}
	shapes := [][2]int{{1, 0}, {0, 1}, {3, 4}}
	for _, n := range sizes {
		for _, sh := range shapes {
			tbl := gatherTable(n, sh[0], sh[1])
			perm := randPerm(rng, n)
			re, err := ReorderTable(tbl, perm)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, fmt.Sprintf("ReorderTable n=%d shape=%v", n, sh), re, seqGather(tbl, perm))

			// A subset with repeats, in random order, of random length.
			var rows []uint32
			if n > 0 {
				rows = make([]uint32, rng.Intn(2*n+1))
				for i := range rows {
					rows[i] = uint32(rng.Intn(n))
				}
			}
			sub, err := SelectRows(tbl, rows)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, fmt.Sprintf("SelectRows n=%d shape=%v", n, sh), sub, seqGather(tbl, rows))
		}
	}
}
