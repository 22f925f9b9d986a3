package dataset

import (
	"math"
	"math/rand"
	"testing"
)

// checkOrder fails unless ord lists 0..len(keys)-1 with keys ascending and
// equal keys in offset order.
func checkOrder(t *testing.T, label string, ord []uint16, keys func(int) uint64) {
	t.Helper()
	seen := make([]bool, len(ord))
	for i, o := range ord {
		if int(o) >= len(ord) || seen[o] {
			t.Fatalf("%s: position %d holds offset %d twice or out of range", label, i, o)
		}
		seen[o] = true
		if i == 0 {
			continue
		}
		a, b := keys(int(ord[i-1])), keys(int(o))
		if a > b || a == b && ord[i-1] > o {
			t.Fatalf("%s: positions %d,%d hold offsets %d,%d out of order", label, i-1, i, ord[i-1], o)
		}
	}
}

// TestSortNumsOrdersByValue: the block sort orders by float value, −0 before
// +0 and ±Inf at the ends, ties by offset — over blocks with heavy
// duplicates, blocks of one value, and blocks whose values share their high
// 32 key bits (the tie fix-up's fallback to a full sort) — and refuses a
// block holding a NaN.
func TestSortNumsOrdersByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 2.25, -1e300, 5e-324, -5e-324}
	sc := new(orderScratch)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5000)
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 4 {
			case 0: // heavy duplicates and the edge values
				if rng.Intn(3) == 0 {
					vals[i] = pool[rng.Intn(len(pool))]
				} else {
					vals[i] = float64(rng.Intn(40) - 20)
				}
			case 1: // continuous, both signs
				vals[i] = rng.NormFloat64() * 1e3
			case 2: // one high key word: only the low 32 bits differ
				vals[i] = 1 + float64(rng.Intn(1<<20))*0x1p-45
			case 3: // one value
				vals[i] = -7
			}
		}
		ord := make([]uint16, n)
		if !sc.sortNums(ord, vals) {
			t.Fatalf("trial %d: a block without NaN refused", trial)
		}
		checkOrder(t, "nums", ord, func(i int) uint64 { return floatKey(vals[i]) })
	}
	vals := []float64{3, 1, math.NaN(), 2}
	if sc.sortNums(make([]uint16, len(vals)), vals) {
		t.Fatal("a block holding a NaN sorted")
	}
	if !(floatKey(math.Copysign(0, -1)) < floatKey(0) && floatKey(-1) < floatKey(math.Copysign(0, -1)) &&
		floatKey(math.Inf(-1)) < floatKey(-math.MaxFloat64) && floatKey(math.MaxFloat64) < floatKey(math.Inf(1))) {
		t.Fatal("floatKey does not follow the float order")
	}
}

// TestSortCodesOrdersByCode covers dictionaries from one code to past the
// one-pass digit, and codes using all 32 bits.
func TestSortCodesOrdersByCode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sc := new(orderScratch)
	for _, card := range []int{1, 2, 12, 300, 5000, 1 << 30} {
		codes := make([]uint32, 4096)
		for i := range codes {
			codes[i] = uint32(rng.Intn(card))
			if card == 1<<30 && i%3 == 0 {
				codes[i] = math.MaxUint32 - uint32(rng.Intn(4))
			}
		}
		ord := make([]uint16, len(codes))
		sc.sortCodes(ord, codes)
		checkOrder(t, "codes", ord, func(i int) uint64 { return uint64(codes[i]) })
	}
}

// TestBlockOrderLineage: the memo belongs to the column lineage. Every view
// an appender mints shares it and a block built through one serves the
// others; a copying appender starts its own; an in-place mutation drops it;
// a decoded table starts empty.
func TestBlockOrderLineage(t *testing.T) {
	const block = BlockRows
	rng := rand.New(rand.NewSource(5))
	schema := MustSchema([]Field{{Name: "q", Kind: Quantitative}, {Name: "n", Kind: Nominal}})
	b := NewBuilder("t", schema, 3*block)
	for i := 0; i < 2*block+10; i++ {
		b.AppendNum(0, rng.Float64())
		b.AppendString(1, []string{"a", "b", "c"}[rng.Intn(3)])
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := NewTableAppender(base, true)
	v0 := app.View()
	o := v0.Columns[0].BlockOrder()
	if v0.Columns[0].BlockOrder() != o {
		t.Fatal("the column handed out a second memo")
	}
	if o.Nums(0, v0.Columns[0].Nums) == nil || o.Nums(1, v0.Columns[0].Nums) == nil {
		t.Fatal("whole aligned blocks got no order")
	}
	if o.Nums(2, v0.Columns[0].Nums) != nil || o.Nums(1, v0.Columns[0].Nums[:block+1]) != nil {
		t.Fatal("a block the view does not hold whole got an order")
	}
	nb := NewBuilder("t", schema, block)
	nb.SetDict(1, base.Columns[1].Dict)
	for i := 0; i < block; i++ {
		nb.AppendNum(0, rng.Float64())
		nb.AppendCode(1, uint32(rng.Intn(3)))
	}
	batch, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := app.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Columns[0].BlockOrder() != o {
		t.Fatal("an appended view does not share the lineage's memo")
	}
	if o.Nums(1, v1.Columns[0].Nums) == nil || o.Builds() != 2 {
		t.Fatalf("a block built through the old view was built again: %d builds", o.Builds())
	}
	if o.Nums(2, v1.Columns[0].Nums) == nil || o.Builds() != 3 {
		t.Fatal("the block the append completed got no order")
	}
	n := v1.Columns[1].BlockOrder()
	if n == nil || n.Codes(0, v1.Columns[1].Codes) == nil || v0.Columns[1].BlockOrder() != n {
		t.Fatal("the nominal column's memo is not the lineage's")
	}

	if NewTableAppender(v1, false).View().Columns[0].BlockOrder() == o {
		t.Fatal("a copying appender shares the source lineage's memo")
	}
	dec, err := DecodeTable(EncodeTable(v1))
	if err != nil {
		t.Fatal(err)
	}
	if d := dec.Columns[0].BlockOrder(); d == o || d.Builds() != 0 {
		t.Fatal("a decoded table carries the memo")
	}
	v1.Columns[0].InvalidateMinMax()
	if v1.Columns[0].BlockOrder() == o {
		t.Fatal("an in-place mutation kept the memo")
	}
}

// TestBlockOrderUnindexable: a block holding a NaN gets no order, for good,
// and the blocks beside it still do.
func TestBlockOrderUnindexable(t *testing.T) {
	col := &Column{Field: Field{Name: "q", Kind: Quantitative}, Nums: make([]float64, 3*BlockRows)}
	for i := range col.Nums {
		col.Nums[i] = float64(i % 7)
	}
	col.Nums[BlockRows+6] = math.NaN()
	o := col.BlockOrder()
	for range 2 {
		if o.Nums(1, col.Nums) != nil {
			t.Fatal("a block holding a NaN got an order")
		}
		if o.Nums(0, col.Nums) == nil || o.Nums(2, col.Nums) == nil {
			t.Fatal("a block beside a NaN block got no order")
		}
	}
	if o.Builds() != 2 {
		t.Fatalf("%d builds, want 2", o.Builds())
	}
}
