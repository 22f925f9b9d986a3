package engine

import (
	"fmt"
	"math"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// Compiled is a query plan bound to a concrete database. It carries two
// equivalent forms of every operator: vectorized kernels (vectorize.go) that
// evaluate whole batches against raw column slices — the form the scan hot
// path uses — and per-row closures kept as the scalar reference
// implementation (property tests assert the two are bitwise identical).
// Dimension attributes resolve through the fact table's FK column (a
// positional join — the star-schema FK holds the dimension row index).
//
// A Compiled plan is immutable and safe for concurrent use by many scan
// goroutines.
type Compiled struct {
	Query *query.Query
	// NumRows is the fact-table row count.
	NumRows int
	// binGet[d] maps a physical row to the d-th bin key component.
	binGet []func(row int) int64
	// aggGet[a] reads the a-th aggregate's input (nil for COUNT).
	aggGet []func(row int) float64
	// filter reports whether a physical row passes all predicates
	// (nil means match-all).
	filter func(row int) bool
	// BinDicts holds the dictionary for nominal binning dimensions (nil for
	// quantitative), used to render bin labels in reports.
	BinDicts []*dataset.Dict

	// Vectorized form: one kernel per bin dimension of a dense plan (none
	// otherwise — only a dense table addresses slots through them), one
	// gather kernel per non-COUNT aggregate (nil for COUNT slots), one
	// predicate kernel per filter conjunct (empty means match-all).
	binKern  []binKernel
	aggKern  []aggKernel
	predKern []predKernel
	// blockSel is predKern[0] if it has a block order, resolved once.
	blockSel blockSelector
	// pairKern computes whole table slots of a dense 2-D plan in one pass
	// when both dimensions read a column's codes directly (newPairKernel);
	// nil otherwise.
	pairKern binKernel
	// aggOps lists the non-COUNT accumulation steps (COUNT needs only the
	// per-bin row count, which accumulate maintains unconditionally).
	aggOps []aggOp

	// Dense group-by: when every bin dimension has a known, small domain
	// (nominal dictionary cardinality, or quantitative bounds from
	// Column.MinMax), geom is that domain, a GroupState's accumulator table
	// has one slot per key of it and the bin kernels compute slots
	// arithmetically; otherwise geom is zero and the table indexes slots by
	// key.
	geom denseGeom
	// tableBytes is the size of the fact table's stored columns
	// (dataset.Table.Bytes).
	tableBytes int64
}

// denseGeom is the key domain of a dense accumulator table: sizeA × sizeB
// slots (sizeB is 1 for 1-D plans), slot = (A-loA)*sizeB + (B-loB).
type denseGeom struct {
	loA, sizeA int64
	loB, sizeB int64
}

// aggOp is one pre-decoded accumulation step, replacing the per-row switch
// on the aggregate function name of the scalar path.
type aggOp struct {
	code uint8 // aggOp* opcode
	slot int   // aggregate index (accumulator and gather-buffer slot)
}

const (
	aggOpMoments = uint8(iota) // Sum and Avg share the shifted-moments accumulator (Moments)
	aggOpMin
	aggOpMax
)

// aggOpsOf lists the accumulation steps of aggs. COUNT, with a field or
// without, has none: the row count is all it needs.
func aggOpsOf(aggs []query.Aggregate) []aggOp {
	var ops []aggOp
	for i, a := range aggs {
		switch a.Func {
		case query.Min:
			ops = append(ops, aggOp{code: aggOpMin, slot: i})
		case query.Max:
			ops = append(ops, aggOp{code: aggOpMax, slot: i})
		case query.Sum, query.Avg:
			ops = append(ops, aggOp{code: aggOpMoments, slot: i})
		}
	}
	return ops
}

// denseMaxSlots caps the dense table size (a slot is 8 bytes of count plus
// 24 per SUM/AVG and 8 per MIN/MAX aggregate, so the worst case for one
// aggregate is 256 KiB per GroupState — small enough for the progressive
// engine's dozens of speculative states).
const denseMaxSlots = 1 << 13

// Compile validates q against db and builds the plan. The first plan to bin
// a fact column by a given (width, origin) also builds that binning's derived
// code column (dataset.Column.BinCodes), one pass over the column; every
// later plan finds it memoized.
func Compile(db *dataset.Database, q *query.Query) (*Compiled, error) {
	return compile(db, q, true)
}

// Recompile rebinds plan's query to db, a grown view of the table plan was
// compiled against. It extends the memoized bin codes the query uses by the
// rows the view adds but never builds one — a dimension whose codes are
// missing gets the arithmetic kernel — so its cost is bounded by the rows
// appended, which is what sharedscan's Extend, recompiling under the
// scheduler lock, needs.
func Recompile(db *dataset.Database, plan *Compiled) (*Compiled, error) {
	return compile(db, plan.Query, false)
}

func compile(db *dataset.Database, q *query.Query, buildCodes bool) (*Compiled, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if db.Fact.Name != q.Table {
		return nil, fmt.Errorf("%w: %q (prepared: %q)", ErrUnknownTable, q.Table, db.Fact.Name)
	}
	if int64(db.Fact.NumRows()) > math.MaxUint32 {
		// Selection vectors (and the engines' permutations) hold row
		// indices as uint32; refuse rather than silently wrap.
		return nil, fmt.Errorf("engine: table %q has %d rows, max supported is %d",
			q.Table, db.Fact.NumRows(), uint32(math.MaxUint32))
	}
	c := &Compiled{Query: q, NumRows: db.Fact.NumRows(), tableBytes: db.Fact.Bytes()}

	var dims []binDim
	var domains []binDomain
	for _, b := range q.Bins {
		getter, dim, err := binAccessor(db, b)
		if err != nil {
			return nil, err
		}
		c.binGet = append(c.binGet, getter)
		dims = append(dims, dim)
		domains = append(domains, dim.domain())
		c.BinDicts = append(c.BinDicts, dim.col.Dict)
	}
	for _, a := range q.Aggs {
		if a.Func == query.Count && a.Field == "" {
			c.aggGet = append(c.aggGet, nil)
			c.aggKern = append(c.aggKern, nil)
			continue
		}
		getter, kern, err := numAccessor(db, a.Field)
		if err != nil {
			return nil, fmt.Errorf("engine: aggregate %s: %w", a, err)
		}
		c.aggGet = append(c.aggGet, getter)
		c.aggKern = append(c.aggKern, kern)
	}
	c.aggOps = aggOpsOf(q.Aggs)
	f, preds, err := compileFilter(db, q.Filter)
	if err != nil {
		return nil, err
	}
	c.filter = f
	c.predKern = preds
	if len(preds) > 0 {
		c.blockSel, _ = preds[0].(blockSelector)
	}
	c.planDense(domains)
	if c.geom.slots() > 0 {
		for i, dim := range dims {
			c.binKern = append(c.binKern, newBinKernel(dim, domains[i], buildCodes))
		}
		if len(c.binKern) == 2 {
			c.pairKern = newPairKernel(c.binKern[0], c.binKern[1], c.geom)
		}
	}
	return c, nil
}

// slotsRange writes the dense table slots of rows [lo, lo+len(dst)) into
// dst: the one kernel of a 1-D plan, the fused pair kernel of a direct 2-D
// plan, or both dimensions' kernels (the second into tmp, len(tmp) ==
// len(dst)) and combine.
func (c *Compiled) slotsRange(lo int, dst, tmp []int32) {
	switch {
	case len(c.binKern) == 1:
		c.binKern[0].slotsRange(lo, dst)
	case c.pairKern != nil:
		c.pairKern.slotsRange(lo, dst)
	default:
		c.binKern[0].slotsRange(lo, dst)
		c.binKern[1].slotsRange(lo, tmp)
		c.geom.combine(dst, tmp)
	}
}

// slotsSel is slotsRange for the selected rows (len(dst) == len(sel)).
func (c *Compiled) slotsSel(sel []uint32, dst, tmp []int32) {
	switch {
	case len(c.binKern) == 1:
		c.binKern[0].slotsSel(sel, dst)
	case c.pairKern != nil:
		c.pairKern.slotsSel(sel, dst)
	default:
		c.binKern[0].slotsSel(sel, dst)
		c.binKern[1].slotsSel(sel, tmp)
		c.geom.combine(dst, tmp)
	}
}

// planDense activates the dense group-by path when the total key domain is
// known and fits denseMaxSlots.
func (c *Compiled) planDense(domains []binDomain) {
	for _, d := range domains {
		if !d.known || d.size <= 0 || d.size > denseMaxSlots {
			return
		}
	}
	g := denseGeom{loA: domains[0].lo, sizeA: domains[0].size, sizeB: 1}
	if len(domains) > 1 {
		g.loB, g.sizeB = domains[1].lo, domains[1].size
	}
	if g.sizeA*g.sizeB > denseMaxSlots {
		return
	}
	c.geom = g
}

// slots returns the dense table size (0 for the zero geometry: no dense
// table).
func (g denseGeom) slots() int { return int(g.sizeA * g.sizeB) }

// slot maps a bin key to its dense slot; ok is false for keys outside the
// domain.
func (g denseGeom) slot(key query.BinKey) (int, bool) {
	a := key.A - g.loA
	if uint64(a) >= uint64(g.sizeA) {
		return 0, false
	}
	b := key.B - g.loB
	if uint64(b) >= uint64(g.sizeB) {
		return 0, false
	}
	return int(a*g.sizeB + b), true
}

// key is the inverse of slot.
func (g denseGeom) key(slot int) query.BinKey {
	return query.BinKey{
		A: int64(slot)/g.sizeB + g.loA,
		B: int64(slot)%g.sizeB + g.loB,
	}
}

// combine turns the per-dimension slot components a and b of a 2-D batch
// into table slots, in a. The bin kernels subtract the domain origins and
// guard only the narrowing to int32 (checkNarrowed), not the domain; an
// out-of-domain component would alias another bin here rather than fault on
// the table access, so the batch is checked as a whole (every term is
// non-negative exactly when both components are in range).
func (g denseGeom) combine(a, b []int32) {
	sizeA, sizeB := int32(g.sizeA), int32(g.sizeB)
	var bad int32
	for i, sa := range a {
		sb := b[i]
		bad |= sa | sb | (sizeA - 1 - sa) | (sizeB - 1 - sb)
		a[i] = sa*sizeB + sb
	}
	if bad < 0 {
		panic("engine: bin key outside the planned dense domain")
	}
}

// disableDense deactivates the dense group-by path; benchmarks and property
// tests use it to exercise the key-indexed table on plans that would qualify.
func (c *Compiled) disableDense() { c.geom = denseGeom{} }

// BinKey computes the bin key of a physical row.
func (c *Compiled) BinKey(row int) query.BinKey {
	k := query.BinKey{A: c.binGet[0](row)}
	if len(c.binGet) > 1 {
		k.B = c.binGet[1](row)
	}
	return k
}

// Matches reports whether a physical row passes the filter.
func (c *Compiled) Matches(row int) bool {
	if c.filter == nil {
		return true
	}
	return c.filter(row)
}

// AggInput reads the aggregate input values of a row into dst (one slot per
// aggregate; COUNT slots are left untouched). dst must have len == number of
// aggregates.
func (c *Compiled) AggInput(row int, dst []float64) {
	for i, g := range c.aggGet {
		if g != nil {
			dst[i] = g(row)
		}
	}
}

// TableBytes returns the size of the stored columns of the fact table the
// plan reads (dataset.Table.Bytes).
func (c *Compiled) TableBytes() int64 { return c.tableBytes }

// NumAggs returns the number of aggregates in the plan.
func (c *Compiled) NumAggs() int { return len(c.aggGet) }

// binAccessor resolves one binning: the per-row bin-key component reader —
// always arithmetic, the reference the kernels are tested against — and the
// resolved dimension its vectorized kernel and key domain derive from.
func binAccessor(db *dataset.Database, b query.Binning) (func(int) int64, binDim, error) {
	col, _, fk, err := db.ResolveColumn(b.Field)
	if err != nil {
		return nil, binDim{}, err
	}
	if col.Field.Kind != b.Kind {
		return nil, binDim{}, fmt.Errorf("engine: binning on %q declares %v but column is %v",
			b.Field, b.Kind, col.Field.Kind)
	}
	dim := binDim{col: col, fk: fk, width: b.Width, origin: b.Origin}
	switch {
	case b.Kind == dataset.Nominal && fk == nil:
		codes := col.Codes
		return func(row int) int64 { return int64(codes[row]) }, dim, nil
	case b.Kind == dataset.Nominal:
		codes, fkNums := col.Codes, fk.Nums
		return func(row int) int64 { return int64(codes[int(fkNums[row])]) }, dim, nil
	case fk == nil:
		nums, width, origin := col.Nums, b.Width, b.Origin
		return func(row int) int64 { return binIdx(nums[row], width, origin) }, dim, nil
	default:
		nums, fkNums, width, origin := col.Nums, fk.Nums, b.Width, b.Origin
		return func(row int) int64 { return binIdx(nums[int(fkNums[row])], width, origin) }, dim, nil
	}
}

// binIdx is floor((v-origin)/width): int64() truncates toward zero, which
// overshoots exactly the negative non-integers. The correction is a flag-set
// and a subtract, not a branch — a column straddling its origin would
// mispredict it every other row.
func binIdx(v, width, origin float64) int64 {
	d := (v - origin) / width
	i := int64(d)
	return i - int64(b2i(float64(i) > d))
}

// binCodes is the dataset.BinCoder of binIdx: a derived code column holds
// exactly what the arithmetic kernels would compute, less base. all ORs the
// differences so one test after the loop finds any that left the byte
// (negative ones carry the sign bits).
func binCodes(dst []uint8, src []float64, width, origin float64, base int64) bool {
	var all int64
	for i, v := range src {
		d := binIdx(v, width, origin) - base
		all |= d
		dst[i] = uint8(d)
	}
	return all>>8 == 0
}

// numAccessor builds a float64 reader for a quantitative attribute, plus
// its vectorized gather kernel.
func numAccessor(db *dataset.Database, field string) (func(int) float64, aggKernel, error) {
	col, _, fk, err := db.ResolveColumn(field)
	if err != nil {
		return nil, nil, err
	}
	if col.Field.Kind != dataset.Quantitative {
		return nil, nil, fmt.Errorf("engine: field %q is nominal, aggregates need quantitative input", field)
	}
	kern := newAggKernel(col, fk)
	nums := col.Nums
	if fk == nil {
		return func(row int) float64 { return nums[row] }, kern, nil
	}
	fkNums := fk.Nums
	return func(row int) float64 { return nums[int(fkNums[row])] }, kern, nil
}

// compileFilter builds the conjunction closure (nil for an empty filter)
// and the per-conjunct predicate kernels.
func compileFilter(db *dataset.Database, f query.Filter) (func(int) bool, []predKernel, error) {
	if f.IsEmpty() {
		return nil, nil, nil
	}
	preds := make([]func(int) bool, 0, len(f.Predicates))
	kerns := make([]predKernel, 0, len(f.Predicates))
	for _, p := range f.Predicates {
		fn, kern, err := compilePredicate(db, p)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, fn)
		kerns = append(kerns, kern)
	}
	if len(preds) == 1 {
		return preds[0], kerns, nil
	}
	return func(row int) bool {
		for _, p := range preds {
			if !p(row) {
				return false
			}
		}
		return true
	}, kerns, nil
}

func compilePredicate(db *dataset.Database, p query.Predicate) (func(int) bool, predKernel, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	col, _, fk, err := db.ResolveColumn(p.Field)
	if err != nil {
		return nil, nil, err
	}
	switch p.Op {
	case query.OpIn:
		if col.Field.Kind != dataset.Nominal {
			return nil, nil, fmt.Errorf("engine: IN predicate on quantitative field %q", p.Field)
		}
		// Resolve values to codes; unknown values simply never match.
		want := make(map[uint32]struct{}, len(p.Values))
		for _, v := range p.Values {
			if code, ok := col.Dict.Lookup(v); ok {
				want[code] = struct{}{}
			}
		}
		kern := newInPredKernel(col, fk, want)
		codes := col.Codes
		if len(want) == 1 {
			var only uint32
			for c := range want {
				only = c
			}
			if fk == nil {
				return func(row int) bool { return codes[row] == only }, kern, nil
			}
			fkNums := fk.Nums
			return func(row int) bool { return codes[int(fkNums[row])] == only }, kern, nil
		}
		if fk == nil {
			return func(row int) bool { _, ok := want[codes[row]]; return ok }, kern, nil
		}
		fkNums := fk.Nums
		return func(row int) bool { _, ok := want[codes[int(fkNums[row])]]; return ok }, kern, nil

	case query.OpRange:
		if col.Field.Kind != dataset.Quantitative {
			return nil, nil, fmt.Errorf("engine: range predicate on nominal field %q", p.Field)
		}
		kern := newRangePredKernel(col, fk, p.Lo, p.Hi)
		nums, lo, hi := col.Nums, p.Lo, p.Hi
		if fk == nil {
			return func(row int) bool { v := nums[row]; return v >= lo && v < hi }, kern, nil
		}
		fkNums := fk.Nums
		return func(row int) bool { v := nums[int(fkNums[row])]; return v >= lo && v < hi }, kern, nil

	default:
		return nil, nil, fmt.Errorf("engine: unknown predicate op %q", p.Op)
	}
}
