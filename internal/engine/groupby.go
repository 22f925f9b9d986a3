package engine

import (
	"math"
	"sync"

	"idebench/internal/query"
	"idebench/internal/stats"
)

// Moments is one bin's running moments of a SUM/AVG input in shifted-data
// form (Chan, Golub and LeVeque): K is the first value the bin folded, S1 =
// Σ(x−K) and S2 = Σ(x−K)². The bin's row count is the table's, not stored
// here, so the readers take it. Folding a row is a subtract, two adds and a
// multiply — no divide on the bin's serial dependency chain — and products
// are rounded explicitly (float64(...)) so no platform fuses them into an
// FMA: the bits are a function of the definition, the data and the chunk
// boundaries alone (README.md, "One accumulator table").
//
// A table's empty slot holds unseeded moments (K is NaN); the first add
// seeds K, so every fold path — scalar, batch, any column order — picks the
// same K without consulting the count. A NaN input leaves K unseeded for the
// next value, but S1 and S2 are NaN from then on, as they would be anyway.
type Moments struct{ K, S1, S2 float64 }

var unseeded = Moments{K: math.NaN()}

// add folds one value in.
func (m *Moments) add(x float64) {
	if m.K != m.K {
		m.K = x
	}
	d := x - m.K
	m.S1 += d
	m.S2 += float64(d * d)
}

// merge folds o, the moments of on rows, into m, the moments of n rows, by
// re-shifting o onto m's K: with δ = o.K−m.K, Σ(x−m.K) = o.S1 + on·δ and
// Σ(x−m.K)² = o.S2 + δ·(2·o.S1 + on·δ). An empty m takes o as it is.
func (m *Moments) merge(n int64, o Moments, on int64) {
	if n == 0 {
		*m = o
		return
	}
	d := o.K - m.K
	shift := float64(float64(on) * d)
	m.S2 += o.S2 + float64(d*(2*o.S1+shift))
	m.S1 += o.S1 + shift
}

// Mean returns the mean of the n folded values, K + S1/n.
func (m Moments) Mean(n int64) float64 { return m.K + m.S1/float64(n) }

// Sum returns the sum of the n folded values, n·K + S1 — exact whenever the
// values and their partial sums are exact, as on integer-valued columns.
func (m Moments) Sum(n int64) float64 { return float64(float64(n)*m.K) + m.S1 }

// M2 returns Σ(x−mean)² of the n folded values, S2 − S1²/n, clamped at 0
// against rounding.
func (m Moments) M2(n int64) float64 { return max(0, m.S2-float64(m.S1*m.S1)/float64(n)) }

// accTable is the flat accumulator table behind GroupState and PartialFold:
// struct-of-arrays columns addressed by slot. n is the per-bin row count and
// doubles as the existence mark: slot s holds a bin exactly when n[s] > 0, the
// one test bins and every walker (Merge, ForEachBin, Partial, render) apply.
// m, mins and maxs hold one column per aggregate, present only where the
// aggregate's function uses it (SUM/AVG → m, MIN → mins, MAX → maxs; COUNT
// needs n alone). Every row of a bin reaches every aggregate, so n is also
// the count of each of the bin's Moments.
//
// Slots are assigned one of two ways. A dense table (geom.slots() > 0) has
// every slot of the planned key domain up front and finds a key's slot
// arithmetically, so ascending slots are ascending keys. An indexed table
// grows one slot per first-touched key and finds it through index; keys maps
// a slot back to its key.
type accTable struct {
	n    []int64
	m    [][]Moments
	mins [][]float64
	maxs [][]float64

	geom  denseGeom
	index map[query.BinKey]int32
	keys  []query.BinKey
}

// newAccTable allocates a table for numAggs aggregates whose non-COUNT
// accumulation steps are ops: dense over geom when it has slots, indexed and
// empty otherwise.
func newAccTable(numAggs int, ops []aggOp, geom denseGeom) accTable {
	t := accTable{
		m:    make([][]Moments, numAggs),
		mins: make([][]float64, numAggs),
		maxs: make([][]float64, numAggs),
	}
	size := geom.slots()
	if size > 0 {
		t.geom = geom
		t.n = make([]int64, size)
	} else {
		t.index = make(map[query.BinKey]int32)
	}
	for _, op := range ops {
		switch op.code {
		case aggOpMoments:
			t.m[op.slot] = filled(size, unseeded)
		case aggOpMin:
			t.mins[op.slot] = filled(size, math.Inf(1))
		case aggOpMax:
			t.maxs[op.slot] = filled(size, math.Inf(-1))
		}
	}
	return t
}

func filled[T any](n int, v T) []T {
	s := make([]T, n)
	fill(s, v)
	return s
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func (t *accTable) dense() bool { return t.index == nil }

// slot returns key's slot, growing an indexed table by one empty slot on
// first touch. A key outside a dense table's domain is a planner bug (the
// domain comes from the column's own bounds), so it panics rather than alias
// another bin.
func (t *accTable) slot(key query.BinKey) int32 {
	if t.dense() {
		s, ok := t.geom.slot(key)
		if !ok {
			panic("engine: bin key outside the planned dense domain")
		}
		return int32(s)
	}
	s, ok := t.index[key]
	if !ok {
		s = int32(len(t.n))
		t.index[key] = s
		t.keys = append(t.keys, key)
		t.n = append(t.n, 0)
		for i := range t.m {
			if t.m[i] != nil {
				t.m[i] = append(t.m[i], unseeded)
			}
			if t.mins[i] != nil {
				t.mins[i] = append(t.mins[i], math.Inf(1))
			}
			if t.maxs[i] != nil {
				t.maxs[i] = append(t.maxs[i], math.Inf(-1))
			}
		}
	}
	return s
}

// key is the inverse of slot.
func (t *accTable) key(s int) query.BinKey {
	if t.dense() {
		return t.geom.key(s)
	}
	return t.keys[s]
}

// bins counts the slots holding a bin.
func (t *accTable) bins() int {
	k := 0
	for _, n := range t.n {
		if n > 0 {
			k++
		}
	}
	return k
}

// merge folds slot os of o into slot s: counts add, moments re-shift and
// add, min/max fold.
func (t *accTable) merge(s int32, o *accTable, os int) {
	n, on := t.n[s], o.n[os]
	t.n[s] = n + on
	for i := range t.m {
		if col := t.m[i]; col != nil {
			col[s].merge(n, o.m[i][os], on)
		}
		if col := t.mins[i]; col != nil && o.mins[i][os] < col[s] {
			col[s] = o.mins[i][os]
		}
		if col := t.maxs[i]; col != nil && o.maxs[i][os] > col[s] {
			col[s] = o.maxs[i][os]
		}
	}
}

// Accum is one bin's accumulator contents as ForEachBin yields them: row
// count, and per aggregate the raw running moments and min/max — everything
// any engine needs to produce exact values, scaled estimates and CLT margins.
// Entries of aggregates that do not use a field keep its empty value (zero
// moments, +Inf min, -Inf max).
type Accum struct {
	N       int64
	Moments []Moments
	Mins    []float64
	Maxs    []float64
}

// GroupState is the group-by accumulator table for one query execution (or
// one execution fragment). Scans run vectorized: ScanRange/ScanRows process
// batches of up to BatchRows rows through the plan's kernels and fold the
// selected rows into one flat accumulator table — dense plans compute each
// row's slot arithmetically, other plans find it through a key index into
// the same columns. The state holds nothing but that table; batch buffers
// belong to the scanning goroutine (scanScratch).
//
// It is not safe for concurrent use; parallel scans keep one GroupState per
// worker and Merge them.
type GroupState struct {
	plan    *Compiled
	t       accTable
	scratch []float64 // scalar path's aggregate inputs
}

// NewGroupState allocates an empty state for the plan.
func NewGroupState(plan *Compiled) *GroupState {
	return &GroupState{
		plan:    plan,
		t:       newAccTable(plan.NumAggs(), plan.aggOps, plan.geom),
		scratch: make([]float64, plan.NumAggs()),
	}
}

// observe folds a single matching row (scalar reference path).
func (g *GroupState) observe(row int) {
	t := &g.t
	s := t.slot(g.plan.BinKey(row))
	t.n[s]++
	g.plan.AggInput(row, g.scratch)
	for _, op := range g.plan.aggOps {
		v := g.scratch[op.slot]
		switch op.code {
		case aggOpMoments:
			t.m[op.slot][s].add(v)
		case aggOpMin:
			if v < t.mins[op.slot][s] {
				t.mins[op.slot][s] = v
			}
		case aggOpMax:
			if v > t.maxs[op.slot][s] {
				t.maxs[op.slot][s] = v
			}
		}
	}
}

// scanScratch is the batch working set of one ScanRange/ScanRows call: the
// selection vector, the slot buffers and the gathered aggregate inputs. It
// belongs to the scanning goroutine, not to the state being filled, so a
// worker folding one chunk through many consumers reuses one cache-resident
// set of buffers and a consumer shard is only its table.
type scanScratch struct {
	sel    [BatchRows]uint32
	slots  [BatchRows]int32
	slotsB [BatchRows]int32
	vals   [][]float64 // gather buffers, one per aggregate op, grown on demand
	in     [][]float64 // this batch's aggregate inputs, parallel to plan.aggOps

	// The block recorder's working set (recordBlock): a bitmap of slots,
	// the slots a block touches, and a dense table it folds into, whose
	// columns — counts, then per op class one column per op of that class —
	// are made on first use and are empty between blocks.
	marks          [denseMaxSlots / 64]uint64
	touched        [denseMaxSlots]uint16
	rec            accTable
	recN           []int64
	recM           [][]Moments
	recMin, recMax [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release returns the scratch to the pool, dropping the column views the
// last batch's aggregate inputs may alias.
func (sc *scanScratch) release() {
	clear(sc.in)
	scratchPool.Put(sc)
}

// val returns the k-th gather buffer.
func (sc *scanScratch) val(k int) []float64 {
	for len(sc.vals) <= k {
		sc.vals = append(sc.vals, make([]float64, BatchRows))
	}
	return sc.vals[k]
}

// gatherRange gathers the aggregate inputs of plan's ops over rows
// [lo, lo+n) into the scratch and returns them, parallel to plan.aggOps.
func (sc *scanScratch) gatherRange(plan *Compiled, lo, n int) [][]float64 {
	sc.in = sc.in[:0]
	for k, op := range plan.aggOps {
		sc.in = append(sc.in, plan.aggKern[op.slot].gatherRange(lo, sc.val(k)[:n]))
	}
	return sc.in
}

// ScanRange folds physical rows [lo, hi) that match the filter.
func (g *GroupState) ScanRange(lo, hi int) { g.ScanRangeReusing(lo, hi, nil, nil) }

// ScanRangeReusing is ScanRange over the block memos (README.md, "Per-block
// scan"): it splits [lo, hi) once into a ragged head and tail, whose rows
// are tested, and whole aligned blocks, each run through scanBlock's chain
// over b's block tables and u's selections. A filtered plan folds the rows
// ScanRange does, in the same order; a merged table is a split scan merged
// back at block edges (README.md, "The bitwise wall"). It returns the rows
// merged from tables b already held. A b of another shape, and a u built
// for another plan (a shard that sharedscan.Extend rebound to a grown
// view), are ignored, and so is a dropped b.
func (g *GroupState) ScanRangeReusing(lo, hi int, b *Blocks, u *SelectionUse) (served int) {
	if b != nil && (b.dropped.Load() || !b.Serves(g.plan)) {
		b = nil
	}
	if u != nil && u.plan != g.plan {
		u = nil
	}
	head := min(hi, (lo+BatchRows-1)/BatchRows*BatchRows)
	tail := max(head, hi/BatchRows*BatchRows)
	sc := scratchPool.Get().(*scanScratch)
	g.scanBatch(sc, lo, head)
	for i := head / BatchRows; i < tail/BatchRows; i++ {
		served += g.scanBlock(sc, i, b, u)
	}
	g.scanBatch(sc, tail, hi)
	sc.release()
	return served
}

// scanBlock folds whole aligned block i through the first stage that
// serves it: (1) b's table of the block, merged — recorded and published
// first when b has none, its rows folded when the block is unrecordable;
// else, for a filtered plan, (2) the rows u's from selection recorded,
// (3) the first predicate's block order or (4) its row test, then refined
// by the predicates not yet applied, recorded into u's into selection and
// folded. It returns the rows merged from a table b already held.
func (g *GroupState) scanBlock(sc *scanScratch, i int, b *Blocks, u *SelectionUse) (served int) {
	lo, hi := i*BatchRows, (i+1)*BatchRows
	if b != nil {
		slot := b.dir.Slot(i)
		switch bt := slot.Load(); bt {
		case blockUnrecordable:
			g.scanBatch(sc, lo, hi)
			return 0
		case nil:
			bt = g.recordBlock(sc, lo, b)
			if slot.CompareAndSwap(nil, bt) && bt != blockUnrecordable && !b.admit(bt.bytes()) {
				slot.CompareAndSwap(bt, nil)
			}
			if bt != blockUnrecordable {
				g.mergeBlock(bt)
			}
			return 0
		default:
			g.mergeBlock(bt)
			return BatchRows
		}
	}
	preds := g.plan.predKern
	if len(preds) == 0 {
		g.scanBatch(sc, lo, hi)
		return 0
	}
	rest := preds[1:]
	sel, ok := u.read(i, sc.sel[:])
	if ok {
		rest = u.residual
	} else if bs := g.plan.blockSel; bs != nil {
		sel, ok = bs.selectBlock(i, sc.sel[:])
	}
	if !ok {
		sel = preds[0].selectRange(lo, hi, sc.sel[:])
	}
	for _, p := range rest {
		sel = p.refine(sel)
	}
	u.record(i, sel)
	g.foldSel(sc, sel)
	return 0
}

// ScanRows folds an explicit list of physical row indices (a permutation
// chunk or a sample). No engine scans this way since the sampling engines
// materialize their permutation; it stays as the oracle the permuted-storage
// property test compares sequential scans against.
func (g *GroupState) ScanRows(rows []uint32) {
	sc := scratchPool.Get().(*scanScratch)
	for len(rows) > 0 {
		n := min(len(rows), BatchRows)
		sel := sc.sel[:n]
		copy(sel, rows)
		for _, p := range g.plan.predKern {
			sel = p.refine(sel)
		}
		g.foldSel(sc, sel)
		rows = rows[n:]
	}
	sc.release()
}

// ScanRangeScalar is the row-at-a-time reference implementation of
// ScanRange. Property tests assert it is bitwise-identical to the batch
// path, and the scan benchmarks use it as the interpreted baseline.
func (g *GroupState) ScanRangeScalar(lo, hi int) {
	for row := lo; row < hi; row++ {
		if g.plan.Matches(row) {
			g.observe(row)
		}
	}
}

// ScanRowsScalar is the row-at-a-time reference implementation of ScanRows.
func (g *GroupState) ScanRowsScalar(rows []uint32) {
	for _, r := range rows {
		row := int(r)
		if g.plan.Matches(row) {
			g.observe(row)
		}
	}
}

// scanBatch runs the kernel pipeline over rows [lo, hi), hi-lo <=
// BatchRows, testing every row: a ragged head or tail (possibly empty), or a
// whole block no memo serves.
func (g *GroupState) scanBatch(sc *scanScratch, lo, hi int) {
	plan := g.plan
	if preds := plan.predKern; len(preds) > 0 {
		sel := preds[0].selectRange(lo, hi, sc.sel[:])
		for _, p := range preds[1:] {
			sel = p.refine(sel)
		}
		g.foldSel(sc, sel)
		return
	}
	// Unfiltered range: slot and gather kernels read the column slices
	// contiguously, no selection vector needed.
	n := hi - lo
	slots := sc.slots[:n]
	if g.t.dense() {
		plan.slotsRange(lo, slots, sc.slotsB[:n])
	} else {
		for i := range slots {
			slots[i] = g.t.slot(plan.BinKey(lo + i))
		}
	}
	g.t.accumulate(plan.aggOps, slots, sc.gatherRange(plan, lo, n))
}

// foldSel computes slots and aggregate inputs for the selected rows and
// accumulates them.
func (g *GroupState) foldSel(sc *scanScratch, sel []uint32) {
	n := len(sel)
	if n == 0 {
		return
	}
	plan := g.plan
	slots := sc.slots[:n]
	if g.t.dense() {
		plan.slotsSel(sel, slots, sc.slotsB[:n])
	} else {
		for i, r := range sel {
			slots[i] = g.t.slot(plan.BinKey(int(r)))
		}
	}
	sc.in = sc.in[:0]
	for k, op := range plan.aggOps {
		vals := sc.val(k)[:n]
		plan.aggKern[op.slot].gatherSel(sel, vals)
		sc.in = append(sc.in, vals)
	}
	g.t.accumulate(plan.aggOps, slots, sc.in)
}

// accumulate folds one batch into the table a column at a time: the counts,
// then each aggregate op's inputs (in[k] belongs to ops[k]). Within a
// column every bin still observes its values in row order, so results stay
// bitwise-identical to the scalar path. A leading SUM/AVG — the dominant
// dashboard shape — shares the counting pass: the count's short
// read-modify-write chain runs beside the moments' add chain.
func (t *accTable) accumulate(ops []aggOp, slots []int32, in [][]float64) {
	cnt := t.n
	if len(ops) > 0 && ops[0].code == aggOpMoments {
		countAndAdd(cnt, t.m[ops[0].slot], slots, in[0])
		ops, in = ops[1:], in[1:]
	} else {
		for _, s := range slots {
			cnt[s]++
		}
	}
	for k, op := range ops {
		vals := in[k][:len(slots)]
		switch op.code {
		case aggOpMoments:
			col := t.m[op.slot]
			for i, s := range slots {
				col[s].add(vals[i])
			}
		case aggOpMin:
			col := t.mins[op.slot]
			for i, s := range slots {
				if v := vals[i]; v < col[s] {
					col[s] = v
				}
			}
		case aggOpMax:
			col := t.maxs[op.slot]
			for i, s := range slots {
				if v := vals[i]; v > col[s] {
					col[s] = v
				}
			}
		}
	}
}

// countAndAdd is accumulate's counting pass fused with a moments column's.
// Kept out of line: inlined into accumulate, the loop shares registers with
// the caller's live values and reloads some from the stack every row
// (~10% slower on BenchmarkScanQuantBin1D/avg, x86-64 Xeon, Go 1.24).
//
//go:noinline
func countAndAdd(cnt []int64, col []Moments, slots []int32, vals []float64) {
	vals = vals[:len(slots)]
	for i, s := range slots {
		cnt[s]++
		col[s].add(vals[i])
	}
}

// Merge folds another state of the same query into g. States over the same
// dense geometry merge slot for slot; otherwise (an indexed side, or a plan
// rebound to a grown table by sharedscan's Extend) each of o's bins is
// re-keyed into g.
func (g *GroupState) Merge(o *GroupState) {
	t, ot := &g.t, &o.t
	sameSlots := t.dense() && ot.dense() && t.geom == ot.geom
	for os, n := range ot.n {
		if n <= 0 {
			continue
		}
		s := int32(os)
		if !sameSlots {
			s = t.slot(ot.key(os))
		}
		t.merge(s, ot, os)
	}
}

// NumGroups returns the current number of bins.
func (g *GroupState) NumGroups() int { return g.t.bins() }

// ForEachBin calls fn for every bin in ascending slot order — ascending key
// order for a dense plan, first-touch order otherwise — with a copy of its
// accumulators. It is the inspection API tests read a state through: each
// call allocates the bin's Accum, so engines render with the Snapshot
// methods or ship Partial instead.
func (g *GroupState) ForEachBin(fn func(key query.BinKey, acc Accum)) {
	t := &g.t
	for s, n := range t.n {
		if n <= 0 {
			continue
		}
		acc := Accum{
			N:       n,
			Moments: make([]Moments, len(t.m)),
			Mins:    filled(len(t.m), math.Inf(1)),
			Maxs:    filled(len(t.m), math.Inf(-1)),
		}
		for i := range t.m {
			if t.m[i] != nil {
				acc.Moments[i] = t.m[i][s]
			}
			if t.mins[i] != nil {
				acc.Mins[i] = t.mins[i][s]
			}
			if t.maxs[i] != nil {
				acc.Maxs[i] = t.maxs[i][s]
			}
		}
		fn(t.key(s), acc)
	}
}

// SnapshotExact renders the state as a complete, exact result (margins 0).
// Blocking engines use this after a full scan.
func (g *GroupState) SnapshotExact() *query.Result {
	rows := int64(g.plan.NumRows)
	return render(&g.t, g.plan.Query.Aggs, rows, rows, rows, 0, 0)
}

// SnapshotScaled renders the state as an estimate from a uniform random
// sample of rowsSeen rows out of populationRows, with CLT margins at the
// z critical value. weight scales beyond the uniform factor for stratified
// engines (weight = N_h / n_h per stratum; pass 0 to use
// populationRows/rowsSeen).
//
// watermark is the data version the estimate reflects, in absorbed fact
// rows (the engine.Appender.Watermark axis). It is a separate parameter
// because populationRows is not always that number: a stratified engine
// estimates for a represented population counted on the same axis, but a
// weighted stratum estimate's population and its absorbed-row version are
// distinct quantities, and conflating them let a sampled shard claim
// freshness it did not have under min-watermark merging.
//
// Estimators (per bin g, sample size m, population N):
//
//	COUNT:  N·(n_g/m),          margin = z·N·sqrt(p̂(1-p̂)/m)
//	SUM:    N·(Σ_g x)/m,        margin = z·N·sqrt(Var(x·1_g)/m)
//	AVG:    mean_g(x),          margin = z·sqrt(Var_g(x)/n_g)
//	MIN/MAX: sample min/max (biased; no margin reported)
func (g *GroupState) SnapshotScaled(rowsSeen, populationRows, watermark int64, weight, z float64) *query.Result {
	return render(&g.t, g.plan.Query.Aggs, rowsSeen, populationRows, watermark, weight, z)
}

// render is the estimator math of SnapshotScaled over a bare accumulator
// table. PartialFold.Render shares it, so a scatter-gather coordinator
// rendering merged shard partials runs the estimator operations a local
// GroupState snapshot runs, over the moments its fold holds. A complete result
// (every row seen, no stratum weight) reports no margins; SnapshotExact is
// that case with a scale factor of exactly 1.
//
// The BinValues and their Values/Margins are carved out of one slice each,
// sized to the bins present, instead of three allocations per bin per poll.
func render(t *accTable, aggs []query.Aggregate, rowsSeen, populationRows, watermark int64, weight, z float64) *query.Result {
	res := &query.Result{
		TotalRows: populationRows,
		RowsSeen:  rowsSeen,
		Complete:  rowsSeen >= populationRows && weight == 0,
		Watermark: watermark,
	}
	if rowsSeen == 0 {
		res.Bins = make(map[query.BinKey]*query.BinValue)
		return res
	}
	m := float64(rowsSeen)
	scale := float64(populationRows) / m
	if weight > 0 {
		scale = weight
	}
	bins, na := t.bins(), len(aggs)
	res.Bins = make(map[query.BinKey]*query.BinValue, bins)
	bvs := make([]query.BinValue, bins)
	floats := make([]float64, 2*na*bins)
	for s, n := range t.n {
		if n <= 0 {
			continue
		}
		bv := &bvs[0]
		bvs = bvs[1:]
		bv.Values, bv.Margins = floats[:na:na], floats[na:2*na:2*na]
		floats = floats[2*na:]
		for i, a := range aggs {
			switch a.Func {
			case query.Count:
				bv.Values[i] = float64(n) * scale
				if !res.Complete {
					bv.Margins[i] = stats.FractionCI(n, rowsSeen, m*scale, z)
				}
			case query.Sum:
				mom := t.m[i][s]
				sum := mom.Sum(n)
				bv.Values[i] = sum * scale
				if res.Complete {
					continue
				}
				// Var over all m rows of z_i = x_i·1[i∈bin]:
				// Σz² = Σ_g x² = M2 + n·mean², z̄ = Σ_g x / m.
				mean := mom.Mean(n)
				zbar := sum / m
				varz := (mom.M2(n) + float64(n)*mean*mean - m*zbar*zbar) / math.Max(m-1, 1)
				if varz < 0 {
					varz = 0
				}
				bv.Margins[i] = z * m * scale * math.Sqrt(varz/m)
			case query.Avg:
				mom := t.m[i][s]
				bv.Values[i] = mom.Mean(n)
				if !res.Complete && n > 1 {
					// The CLT half-width z·sqrt(s²/n), s² = M2/(n−1).
					bv.Margins[i] = z * math.Sqrt(mom.M2(n)/float64(n-1)/float64(n))
				}
			case query.Min:
				bv.Values[i] = t.mins[i][s]
			case query.Max:
				bv.Values[i] = t.maxs[i][s]
			}
		}
		res.Bins[t.key(s)] = bv
	}
	return res
}
