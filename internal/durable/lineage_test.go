package durable_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/durable"
)

// assertTableBitwise requires got to be want bit for bit: the same schema
// and rows, every float's IEEE-754 bits, every dictionary code, the
// dictionary prefix want's codes reference, and the memoized bounds' bits.
func assertTableBitwise(t *testing.T, got, want *dataset.Table) {
	t.Helper()
	if got.Name != want.Name || !slices.Equal(got.Schema.Fields, want.Schema.Fields) || got.NumRows() != want.NumRows() {
		t.Fatalf("recovered %q %v with %d rows, want %q %v with %d", got.Name, got.Schema.Fields, got.NumRows(),
			want.Name, want.Schema.Fields, want.NumRows())
	}
	for i, wc := range want.Columns {
		gc := got.Columns[i]
		if wc.Field.Kind == dataset.Nominal {
			if !slices.Equal(gc.Codes, wc.Codes) {
				t.Fatalf("column %q: codes differ", wc.Field.Name)
			}
			pin := 0
			for _, c := range wc.Codes {
				pin = max(pin, int(c)+1)
			}
			if gv, wv := gc.Dict.Values(), wc.Dict.Values()[:pin]; !slices.Equal(gv, wv) {
				t.Fatalf("column %q: dictionary %v, want %v", wc.Field.Name, gv, wv)
			}
			continue
		}
		for r := range wc.Nums {
			if math.Float64bits(gc.Nums[r]) != math.Float64bits(wc.Nums[r]) {
				t.Fatalf("column %q row %d: %v, want %v", wc.Field.Name, r, gc.Nums[r], wc.Nums[r])
			}
		}
		glo, ghi, gok := gc.MinMax()
		wlo, whi, wok := wc.MinMax()
		if math.Float64bits(glo) != math.Float64bits(wlo) || math.Float64bits(ghi) != math.Float64bits(whi) || gok != wok {
			t.Fatalf("column %q bounds (%v, %v, %v), want (%v, %v, %v)", wc.Field.Name, glo, ghi, gok, wlo, whi, wok)
		}
	}
}

// TestCheckpointLineageProperty checkpoints 200 appends of random size —
// empty batches included, dictionary values first seen mid-lineage, signed
// zeros, and NaN landing in one quantitative column partway — and recovers
// after a random subset of them. Every recovery must return the view that
// was checkpointed bit for bit, including its MinMax bits and the
// permutation, from a manifest whose fact segments are the bootstrap's base
// plus one tail per non-empty checkpoint. Checkpointing carries on through
// the recovered store, so what Recover remembers of the newest checkpoint
// is what the next tail extends.
func TestCheckpointLineageProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 7919))
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "cat", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
		{Name: "y", Kind: dataset.Quantitative},
	})
	const baseRows = 64
	b := dataset.NewBuilder("lineage", schema, baseRows)
	for i := 0; i < baseRows; i++ {
		b.AppendString(0, []string{"a", "b", "c"}[rng.IntN(3)])
		b.AppendNum(1, float64(rng.IntN(100)))
		b.AppendNum(2, rng.NormFloat64())
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]uint32, baseRows)
	for i, p := range rng.Perm(baseRows) {
		perm[i] = uint32(p)
	}

	dir := t.TempDir()
	meta := durable.Meta{Engine: "lineage", Seed: 1, BaseRows: baseRows}
	st := openTestStore(t, dir, durable.Options{Meta: meta})
	if err := st.Bootstrap(&dataset.Database{Fact: base}, perm); err != nil {
		t.Fatal(err)
	}
	app := dataset.NewTableAppender(base, false)
	view := app.View()
	dict := view.Column("cat").Dict
	novel, tails, recoveries := 0, 0, 0
	for i := 0; i < 200; i++ {
		rows := rng.IntN(40)
		if rng.IntN(5) == 0 {
			rows = 0
		}
		codes := make([]uint32, rows)
		xs, ys := make([]float64, rows), make([]float64, rows)
		for r := range rows {
			if rng.IntN(25) == 0 {
				codes[r] = dict.Code(fmt.Sprintf("v%d", novel))
				novel++
			} else {
				codes[r] = uint32(rng.IntN(dict.Len()))
			}
			switch rng.IntN(8) {
			case 0:
				xs[r] = math.Copysign(0, -1)
			case 1:
				xs[r] = 0
			default:
				xs[r] = float64(rng.IntN(400) - 200)
			}
			ys[r] = rng.NormFloat64() * float64(i+1)
			if i >= 120 && rng.IntN(60) == 0 {
				ys[r] = math.NaN()
			}
		}
		batch, err := dataset.NewTable("lineage", schema, []*dataset.Column{
			{Field: schema.Fields[0], Dict: dict, Codes: codes},
			{Field: schema.Fields[1], Nums: xs},
			{Field: schema.Fields[2], Nums: ys},
		})
		if err != nil {
			t.Fatal(err)
		}
		if view, err = app.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(&dataset.Database{Fact: view}, perm); err != nil {
			t.Fatal(err)
		}
		if rows > 0 {
			tails++
		}
		if rng.IntN(12) != 0 && i != 199 {
			continue
		}
		recoveries++
		st.Close()
		st = openTestStore(t, dir, durable.Options{Meta: meta})
		rec, err := st.Recover()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		assertTableBitwise(t, rec.Checkpoint.DB.Fact, view)
		if !slices.Equal(rec.Checkpoint.Perm, perm) {
			t.Fatalf("checkpoint %d: permutation differs", i)
		}
		facts := 0
		for _, s := range rec.Checkpoint.Manifest.Segments {
			if s.Role == "fact" {
				facts++
			}
		}
		if facts != 1+tails {
			t.Fatalf("checkpoint %d: %d fact segments, want the base plus %d tails", i, facts, tails)
		}
	}
	if _, _, ok := view.Column("y").MinMax(); ok {
		t.Fatal("no NaN reached the lineage; the property did not cover frozen bounds")
	}
	if novel == 0 || recoveries < 10 {
		t.Fatalf("%d novel dictionary values, %d recoveries: the property covered too little", novel, recoveries)
	}
}
