package engine

import (
	"math/bits"
	"slices"

	"idebench/internal/dataset"
)

// This file holds the vectorized execution kernels: type-specialized loops
// that evaluate one query operator over a whole batch of rows at a time,
// reading raw column slices directly. They replace the per-row closure calls
// of the scalar reference path (compile.go) on the hot scan path.
//
// Execution model per batch (≤ BatchRows rows, a range [lo,hi) or an
// explicit row list), over buffers the scanning goroutine owns
// (scanScratch):
//
//  1. Predicate kernels produce a selection vector — the absolute row
//     indices that pass the filter. The first predicate materializes the
//     vector; the remaining predicates refine it in place. Both are
//     branch-free: every candidate row is written at the cursor and the
//     cursor advances by the 0/1 outcome, so an unpredictable filter costs
//     no mispredictions. For one whole aligned block a range or IN
//     predicate on a fact column tests no row: it finds the passing ones in
//     the column's block order (selectBlock).
//  2. Bin kernels fill an []int32 buffer with each selected row's slot in
//     the dense accumulator table — for 2-D plans in one pass when both
//     dimensions read codes directly (pairBin), else two buffers combined;
//     plans without a dense table resolve slots through the table's key
//     index instead.
//  3. Aggregate kernels gather input values into []float64 buffers — or,
//     for an unfiltered range over a fact column, alias the column itself.
//  4. GroupState.accumulate folds the buffers into the table's columns.
//
// All kernels preserve row order, so every bin's accumulator observes the
// exact same value sequence as the scalar path and results are bitwise
// identical (vectorize_test.go asserts this on randomized schemas).

// BatchRows is the batch granularity, one block of the lineage grid
// (dataset.BlockRows): large enough to amortize per-batch overhead, small
// enough that selection vectors and slot/value buffers stay L1/L2-resident
// (4096 rows ≈ 32 KiB per float64 buffer).
const BatchRows = dataset.BlockRows

// inBitmapMax caps the dictionary cardinality for which IN predicates build
// a []bool lookup table; beyond it they fall back to a map.
const inBitmapMax = 1 << 21

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag-set
// instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Bin kernels

// binKernel computes one bin dimension's dense slot component — the bin key
// minus the dimension's planned domain origin — for a batch of rows. Only
// plans with a dense table have one, over the domain binDim.domain reports.
type binKernel interface {
	// slotsRange writes the components of rows [lo, lo+len(dst)) into dst.
	slotsRange(lo int, dst []int32)
	// slotsSel writes the components of the selected rows into dst
	// (len(dst) == len(sel)).
	slotsSel(sel []uint32, dst []int32)
}

// nominalDirectBin bins by dictionary code of a fact-table column (the code
// is the component: the domain starts at 0).
type nominalDirectBin struct{ codes []uint32 }

func (k nominalDirectBin) slotsRange(lo int, dst []int32) {
	src := k.codes[lo : lo+len(dst)]
	for i, c := range src {
		dst[i] = int32(c)
	}
}

func (k nominalDirectBin) slotsSel(sel []uint32, dst []int32) {
	for i, r := range sel {
		dst[i] = int32(k.codes[r])
	}
}

// nominalFKBin bins by dictionary code of a dimension column reached through
// the fact table's positional FK column.
type nominalFKBin struct {
	codes []uint32
	fk    []float64
}

func (k nominalFKBin) slotsRange(lo int, dst []int32) {
	src := k.fk[lo : lo+len(dst)]
	for i, f := range src {
		dst[i] = int32(k.codes[int(f)])
	}
}

func (k nominalFKBin) slotsSel(sel []uint32, dst []int32) {
	for i, r := range sel {
		dst[i] = int32(k.codes[int(k.fk[r])])
	}
}

// checkNarrowed guards the quantitative kernels' int64→int32 narrowing. all
// is the OR of a batch's components before narrowing: a bit at or above 31
// means one was negative or beyond int32, and narrowing it could wrap onto a
// valid slot and fold the row into another bin. What passes is in [0, 2^31),
// so a component past the domain then faults on the table access (1-D) or in
// combine (2-D) instead of aliasing. The domain comes from the column's own
// bounds, so a failure is a broken column invariant, not a data condition.
func checkNarrowed(all int64) {
	if all>>31 != 0 {
		panic("engine: bin key outside the planned dense domain")
	}
}

// quantDirectBin bins a fact-table quantitative column by fixed width; base
// is the bin index of the column's minimum.
type quantDirectBin struct {
	nums          []float64
	width, origin float64
	base          int64
}

func (k quantDirectBin) slotsRange(lo int, dst []int32) {
	src := k.nums[lo : lo+len(dst)]
	var all int64
	for i, v := range src {
		d := binIdx(v, k.width, k.origin) - k.base
		all |= d
		dst[i] = int32(d)
	}
	checkNarrowed(all)
}

func (k quantDirectBin) slotsSel(sel []uint32, dst []int32) {
	var all int64
	for i, r := range sel {
		d := binIdx(k.nums[r], k.width, k.origin) - k.base
		all |= d
		dst[i] = int32(d)
	}
	checkNarrowed(all)
}

// codeBin bins a fact-table quantitative column through its derived bin-code
// column (dataset.Column.BinCodes): one byte per row holding the row's bin
// index less the memo's base, so a slot component is a widened byte plus
// off = base - domain origin — no divide, an eighth of the memory traffic.
// The code is binIdx's own output, which is why results stay bitwise those of
// quantDirectBin. A code outside the planned domain (a column invariant
// broken behind the memo) yields a component in [-255, 255], so unlike the
// arithmetic kernels it cannot wrap int32: it faults on the table access
// (1-D) or in the domain check of combine or pairBin (2-D).
type codeBin struct {
	codes []uint8
	off   int32
}

func (k codeBin) slotsRange(lo int, dst []int32) {
	src := k.codes[lo : lo+len(dst)]
	for i, c := range src {
		dst[i] = int32(c) + k.off
	}
}

func (k codeBin) slotsSel(sel []uint32, dst []int32) {
	for i, r := range sel {
		dst[i] = int32(k.codes[r]) + k.off
	}
}

// pairBin computes whole slots of a dense 2-D plan whose dimensions both read
// a fact column's codes directly — a derived bin-code column (codeBin, A or B
// = uint8) or a dictionary-code column (nominalDirectBin, uint32, offset 0):
// slot = (a+offA)·sizeB + (b+offB) in one pass, with combine's branch-free
// domain check over the batch and its panic. The slots are the integers the
// two kernels and combine compute, so results do not change by a bit.
type pairBin[A, B uint8 | uint32] struct {
	a            []A
	b            []B
	offA, offB   int32
	sizeA, sizeB int32
}

func (k pairBin[A, B]) slotsRange(lo int, dst []int32) {
	a := k.a[lo : lo+len(dst)]
	b := k.b[lo : lo+len(a)]
	dst = dst[:len(a)]
	var bad int32
	for i, ca := range a {
		sa, sb := int32(ca)+k.offA, int32(b[i])+k.offB
		bad |= sa | sb | (k.sizeA - 1 - sa) | (k.sizeB - 1 - sb)
		dst[i] = sa*k.sizeB + sb
	}
	if bad < 0 {
		panic("engine: bin key outside the planned dense domain")
	}
}

func (k pairBin[A, B]) slotsSel(sel []uint32, dst []int32) {
	dst = dst[:len(sel)]
	var bad int32
	for i, r := range sel {
		sa, sb := int32(k.a[r])+k.offA, int32(k.b[r])+k.offB
		bad |= sa | sb | (k.sizeA - 1 - sa) | (k.sizeB - 1 - sb)
		dst[i] = sa*k.sizeB + sb
	}
	if bad < 0 {
		panic("engine: bin key outside the planned dense domain")
	}
}

// quantFKBin bins an FK-indirected dimension quantitative column.
type quantFKBin struct {
	nums          []float64
	fk            []float64
	width, origin float64
	base          int64
}

func (k quantFKBin) slotsRange(lo int, dst []int32) {
	src := k.fk[lo : lo+len(dst)]
	var all int64
	for i, f := range src {
		d := binIdx(k.nums[int(f)], k.width, k.origin) - k.base
		all |= d
		dst[i] = int32(d)
	}
	checkNarrowed(all)
}

func (k quantFKBin) slotsSel(sel []uint32, dst []int32) {
	var all int64
	for i, r := range sel {
		d := binIdx(k.nums[int(k.fk[r])], k.width, k.origin) - k.base
		all |= d
		dst[i] = int32(d)
	}
	checkNarrowed(all)
}

// ---------------------------------------------------------------------------
// Aggregate-input kernels

// aggKernel gathers aggregate input values for a batch of rows.
type aggKernel interface {
	// gatherRange returns the inputs of rows [lo, lo+len(buf)): in buf, or
	// as a view of the column itself when they already lie contiguous there.
	gatherRange(lo int, buf []float64) []float64
	// gatherSel writes the inputs of the selected rows into dst
	// (len(dst) == len(sel)).
	gatherSel(sel []uint32, dst []float64)
}

// numDirectAgg reads a fact-table quantitative column.
type numDirectAgg struct{ nums []float64 }

func (k numDirectAgg) gatherRange(lo int, buf []float64) []float64 {
	return k.nums[lo : lo+len(buf)]
}

func (k numDirectAgg) gatherSel(sel []uint32, dst []float64) {
	for i, r := range sel {
		dst[i] = k.nums[r]
	}
}

// numFKAgg reads an FK-indirected dimension quantitative column.
type numFKAgg struct{ nums, fk []float64 }

func (k numFKAgg) gatherRange(lo int, buf []float64) []float64 {
	src := k.fk[lo : lo+len(buf)]
	for i, f := range src {
		buf[i] = k.nums[int(f)]
	}
	return buf
}

func (k numFKAgg) gatherSel(sel []uint32, dst []float64) {
	for i, r := range sel {
		dst[i] = k.nums[int(k.fk[r])]
	}
}

// ---------------------------------------------------------------------------
// Block-order selection
//
// A whole aligned block of a fact column has a block order
// (dataset.BlockOrder): its row offsets sorted by value. A range or IN
// predicate passes the rows of one run of that order per range or IN value,
// found by two binary searches; the run's offsets set bits in a one-bit-per-
// row block bitmap, and expanding the bitmap yields the passing rows in
// ascending order — the selection the scan kernel writes, at O(selected +
// BatchRows/64) instead of O(BatchRows).

// maxOrderRuns caps the IN values the block-order path searches for, two
// binary searches each. The workflow generator's IN filters hold one to
// three values; a longer list tests every row.
const maxOrderRuns = 16

// orderRun is a run [a, b) of positions in a block order.
type orderRun struct{ a, b int }

// searchNums returns the first position of ord whose row in v is not below
// x, len(ord) if there is none. v holds no NaN (an indexed block has none).
func searchNums(ord []uint16, v []float64, x float64) int {
	i, j := 0, len(ord)
	for i < j {
		h := int(uint(i+j) >> 1)
		if v[ord[h]] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// searchCodes returns the first position of ord whose row in c is at least
// x, len(ord) if there is none.
func searchCodes(ord []uint16, c []uint32, x uint32) int {
	i, j := 0, len(ord)
	for i < j {
		h := int(uint(i+j) >> 1)
		if c[ord[h]] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// inOrder is an IN kernel's codes with its block-order path: ord is the
// column's block order (nil for an FK-indirected column, which has none),
// vals the wanted codes ascending.
type inOrder struct {
	codes []uint32
	ord   *dataset.BlockOrder
	vals  []uint32
}

// selectBlock is the IN predicate over block i through its block order. ok
// is false, and the caller tests the rows, when the block has no order or
// vals is too long to search for.
func (p inOrder) selectBlock(i int, buf []uint32) (sel []uint32, ok bool) {
	if len(p.vals) > maxOrderRuns {
		return nil, false
	}
	o := p.ord.Codes(i, p.codes)
	if o == nil {
		return nil, false
	}
	lo := i * BatchRows
	c := p.codes[lo : lo+BatchRows]
	var runs [maxOrderRuns]orderRun
	n, at := 0, 0
	for _, x := range p.vals {
		a := at + searchCodes(o[at:], c, x)
		b := len(o)
		if x < ^uint32(0) {
			b = a + searchCodes(o[a:], c, x+1)
		}
		if b > a {
			runs[n] = orderRun{a, b}
			n++
		}
		at = b
	}
	return selectOrder(lo, o, runs[:n], buf), true
}

// selectOrder writes into buf, ascending, the rows of the aligned block at
// lo whose positions in the block's order ord fall in runs (disjoint,
// ascending), and returns the filled prefix. Past half a block it marks the
// positions outside the runs and inverts the bitmap, so marking costs at most
// half a block.
func selectOrder(lo int, ord []uint16, runs []orderRun, buf []uint32) []uint32 {
	var bm [BatchRows / 64]uint64
	n := 0
	for _, r := range runs {
		n += r.b - r.a
	}
	if n > len(ord)/2 {
		at := 0
		for _, r := range runs {
			markOrder(&bm, ord[at:r.a])
			at = r.b
		}
		markOrder(&bm, ord[at:])
		for i := range bm {
			bm[i] = ^bm[i]
		}
	} else {
		for _, r := range runs {
			markOrder(&bm, ord[r.a:r.b])
		}
	}
	k, row := 0, uint32(lo)
	for _, w := range bm {
		if w == ^uint64(0) {
			for j := range uint32(64) {
				buf[k+int(j)] = row + j
			}
			k += 64
		} else {
			for ; w != 0; w &= w - 1 {
				buf[k] = row + uint32(bits.TrailingZeros64(w))
				k++
			}
		}
		row += 64
	}
	return buf[:k]
}

// markOrder sets the bitmap bit of every offset in offs.
func markOrder(bm *[BatchRows / 64]uint64, offs []uint16) {
	for _, o := range offs {
		bm[o>>6] |= 1 << (o & 63)
	}
}

// ---------------------------------------------------------------------------
// Predicate kernels

// predKernel evaluates one filter conjunct over a batch. Both methods test
// every row, keep row order and are branch-free in the predicate's outcome.
type predKernel interface {
	// selectRange writes the rows of [lo, hi) that pass into buf
	// (len(buf) >= hi-lo) and returns the filled prefix.
	selectRange(lo, hi int, buf []uint32) []uint32
	// refine keeps only the passing rows of sel, in place.
	refine(sel []uint32) []uint32
}

// blockSelector is a predicate kernel with a block order: selectBlock is
// selectRange over whole aligned block i found through the order, ok false
// when the block has none the kernel can search (the caller tests the rows).
type blockSelector interface {
	selectBlock(i int, buf []uint32) (sel []uint32, ok bool)
}

// rangeDirectPred is [lo, hi) on a fact-table quantitative column.
type rangeDirectPred struct {
	nums   []float64
	ord    *dataset.BlockOrder
	lo, hi float64
}

func (p rangeDirectPred) selectBlock(i int, buf []uint32) ([]uint32, bool) {
	ord := p.ord.Nums(i, p.nums)
	if ord == nil {
		return nil, false
	}
	// v >= lo and v < hi are each monotone along the order, so the passing
	// positions are one run; a NaN bound passes no row.
	if p.lo != p.lo || p.hi != p.hi {
		return buf[:0], true
	}
	lo := i * BatchRows
	v := p.nums[lo : lo+BatchRows]
	a, b := searchNums(ord, v, p.lo), searchNums(ord, v, p.hi)
	run := [1]orderRun{{a, max(a, b)}}
	return selectOrder(lo, ord, run[:], buf), true
}

func (p rangeDirectPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.nums[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, v := range src {
		buf[k] = uint32(lo + i)
		k += b2i(v >= p.lo) & b2i(v < p.hi)
	}
	return buf[:k]
}

func (p rangeDirectPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		v := p.nums[r]
		sel[k] = r
		k += b2i(v >= p.lo) & b2i(v < p.hi)
	}
	return sel[:k]
}

// rangeFKPred is [lo, hi) on an FK-indirected dimension column.
type rangeFKPred struct {
	nums   []float64
	fk     []float64
	lo, hi float64
}

func (p rangeFKPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.fk[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, f := range src {
		v := p.nums[int(f)]
		buf[k] = uint32(lo + i)
		k += b2i(v >= p.lo) & b2i(v < p.hi)
	}
	return buf[:k]
}

func (p rangeFKPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		v := p.nums[int(p.fk[r])]
		sel[k] = r
		k += b2i(v >= p.lo) & b2i(v < p.hi)
	}
	return sel[:k]
}

// inOneDirectPred is the single-value IN — the shape every cross-viz brush
// selection produces — on a fact-table column; vals is {only}.
type inOneDirectPred struct {
	inOrder
	only uint32
}

func (p inOneDirectPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.codes[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, c := range src {
		buf[k] = uint32(lo + i)
		k += b2i(c == p.only)
	}
	return buf[:k]
}

func (p inOneDirectPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(p.codes[r] == p.only)
	}
	return sel[:k]
}

// inOneFKPred is the single-value IN on an FK-indirected dimension column.
type inOneFKPred struct {
	codes []uint32
	fk    []float64
	only  uint32
}

func (p inOneFKPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.fk[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, f := range src {
		buf[k] = uint32(lo + i)
		k += b2i(p.codes[int(f)] == p.only)
	}
	return buf[:k]
}

func (p inOneFKPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(p.codes[int(p.fk[r])] == p.only)
	}
	return sel[:k]
}

// inBitmapDirectPred is the multi-value IN as a code-indexed lookup table.
type inBitmapDirectPred struct {
	inOrder
	want []bool
}

func (p inBitmapDirectPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.codes[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, c := range src {
		buf[k] = uint32(lo + i)
		k += b2i(p.want[c])
	}
	return buf[:k]
}

func (p inBitmapDirectPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(p.want[p.codes[r]])
	}
	return sel[:k]
}

// inBitmapFKPred is the multi-value IN on an FK-indirected dimension column.
type inBitmapFKPred struct {
	codes []uint32
	fk    []float64
	want  []bool
}

func (p inBitmapFKPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	src := p.fk[lo:hi]
	buf = buf[:len(src)]
	k := 0
	for i, f := range src {
		buf[k] = uint32(lo + i)
		k += b2i(p.want[p.codes[int(f)]])
	}
	return buf[:k]
}

func (p inBitmapFKPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(p.want[p.codes[int(p.fk[r])]])
	}
	return sel[:k]
}

// inMapPred is the multi-value IN fallback for dictionaries too large for a
// lookup table; fk is nil for fact-table columns.
type inMapPred struct {
	inOrder
	fk   []float64
	want map[uint32]struct{}
}

func (p inMapPred) match(r uint32) bool {
	idx := int(r)
	if p.fk != nil {
		idx = int(p.fk[r])
	}
	_, ok := p.want[p.codes[idx]]
	return ok
}

func (p inMapPred) selectRange(lo, hi int, buf []uint32) []uint32 {
	buf = buf[:hi-lo]
	k := 0
	for r := lo; r < hi; r++ {
		buf[k] = uint32(r)
		k += b2i(p.match(uint32(r)))
	}
	return buf[:k]
}

func (p inMapPred) refine(sel []uint32) []uint32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(p.match(r))
	}
	return sel[:k]
}

// ---------------------------------------------------------------------------
// Kernel construction (mirrors the closure builders in compile.go; both are
// derived from the same resolved column so they cannot disagree)

// binDomain is the compile-time key domain of one binning dimension, used to
// size the dense accumulator table. known is false when the domain cannot be
// bounded (e.g. a quantitative column containing NaN).
type binDomain struct {
	lo    int64
	size  int64
	known bool
}

// binDim is one resolved binning dimension: the column, the fact-side FK
// column it is reached through (nil for a fact column) and, for a
// quantitative column, the binning parameters.
type binDim struct {
	col, fk       *dataset.Column
	width, origin float64
}

// domain is the dimension's key domain: a nominal column's dictionary, or
// the bin indices of a quantitative column's bounds.
func (d binDim) domain() binDomain {
	if d.col.Field.Kind == dataset.Nominal {
		return binDomain{lo: 0, size: int64(d.col.Dict.Len()), known: true}
	}
	mn, mx, ok := d.col.MinMax()
	if !ok {
		return binDomain{}
	}
	lo := binIdx(mn, d.width, d.origin)
	hi := binIdx(mx, d.width, d.origin)
	return binDomain{lo: lo, size: hi - lo + 1, known: hi >= lo}
}

// newBinKernel picks the kernel of one dimension of a dense plan over dom,
// the dimension's domain. A quantitative fact column reads its derived code
// column whenever the lineage has (or, with buildCodes, may now build) one
// covering this view — dataset.Column.BinCodes says when it cannot: a domain
// past a byte's 256 slots, a lineage at its cap of distinct binnings, values
// that outgrew the byte. Those, and every FK-indirected dimension, compute
// the index from the values.
func newBinKernel(d binDim, dom binDomain, buildCodes bool) binKernel {
	col := d.col
	switch {
	case col.Field.Kind == dataset.Nominal && d.fk == nil:
		return nominalDirectBin{codes: col.Codes}
	case col.Field.Kind == dataset.Nominal:
		return nominalFKBin{codes: col.Codes, fk: d.fk.Nums}
	case d.fk != nil:
		return quantFKBin{nums: col.Nums, fk: d.fk.Nums, width: d.width, origin: d.origin, base: dom.lo}
	}
	codes, base, ok := col.BinCodes(d.width, d.origin, dom.lo, dom.lo+dom.size-1, binCodes, buildCodes)
	if !ok {
		return quantDirectBin{nums: col.Nums, width: d.width, origin: d.origin, base: dom.lo}
	}
	return codeBin{codes: codes, off: int32(base - dom.lo)}
}

// newPairKernel fuses the two dimension kernels of a dense 2-D plan over g
// into one pairBin when both read codes directly, and returns nil — leaving
// the plan two passes and combine — when either is an FK or arithmetic
// kernel.
func newPairKernel(ka, kb binKernel, g denseGeom) binKernel {
	sizeA, sizeB := int32(g.sizeA), int32(g.sizeB)
	switch a := ka.(type) {
	case codeBin:
		switch b := kb.(type) {
		case codeBin:
			return pairBin[uint8, uint8]{a.codes, b.codes, a.off, b.off, sizeA, sizeB}
		case nominalDirectBin:
			return pairBin[uint8, uint32]{a.codes, b.codes, a.off, 0, sizeA, sizeB}
		}
	case nominalDirectBin:
		switch b := kb.(type) {
		case codeBin:
			return pairBin[uint32, uint8]{a.codes, b.codes, 0, b.off, sizeA, sizeB}
		case nominalDirectBin:
			return pairBin[uint32, uint32]{a.codes, b.codes, 0, 0, sizeA, sizeB}
		}
	}
	return nil
}

func newAggKernel(col *dataset.Column, fk *dataset.Column) aggKernel {
	if fk == nil {
		return numDirectAgg{nums: col.Nums}
	}
	return numFKAgg{nums: col.Nums, fk: fk.Nums}
}

// newInPredKernel builds the IN kernel for resolved codes (already looked up
// in the column's dictionary; unknown values are absent).
func newInPredKernel(col *dataset.Column, fk *dataset.Column, want map[uint32]struct{}) predKernel {
	in := inOrder{codes: col.Codes, vals: make([]uint32, 0, len(want))}
	for c := range want {
		in.vals = append(in.vals, c)
	}
	slices.Sort(in.vals)
	var fkNums []float64
	if fk != nil {
		fkNums = fk.Nums
	} else {
		in.ord = col.BlockOrder()
	}
	if len(in.vals) == 1 {
		if fk == nil {
			return inOneDirectPred{inOrder: in, only: in.vals[0]}
		}
		return inOneFKPred{codes: col.Codes, fk: fkNums, only: in.vals[0]}
	}
	if n := col.Dict.Len(); n <= inBitmapMax {
		bits := make([]bool, n)
		for c := range want {
			if int(c) < n {
				bits[c] = true
			}
		}
		if fk == nil {
			return inBitmapDirectPred{inOrder: in, want: bits}
		}
		return inBitmapFKPred{codes: col.Codes, fk: fkNums, want: bits}
	}
	return inMapPred{inOrder: in, fk: fkNums, want: want}
}

func newRangePredKernel(col *dataset.Column, fk *dataset.Column, lo, hi float64) predKernel {
	if fk == nil {
		return rangeDirectPred{nums: col.Nums, ord: col.BlockOrder(), lo: lo, hi: hi}
	}
	return rangeFKPred{nums: col.Nums, fk: fk.Nums, lo: lo, hi: hi}
}
