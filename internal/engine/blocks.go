package engine

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"unsafe"

	"idebench/internal/dataset"
)

// Block tables (README.md, "Block tables"): the accumulator table an
// unfiltered dense plan, 1-D or 2-D, folds over one aligned block of
// BatchRows rows depends on nothing but the block's rows and the plan's
// accumulator shape — the binnings, their dense geometry and each aggregate
// op's class and input — so it can be recorded once per block and merged by
// every later scan of that shape (the first stage of
// GroupState.ScanRangeReusing's chain): one slot merge per bin the block
// touches instead of BatchRows row folds. These are Small Materialized
// Aggregates (Moerkotte, VLDB 1998) on the block grid.

// maxBlockTableBytes is the per-block byte rule: a block whose table
// (blockTableBytes) would be larger keeps none, and every scan folds its
// rows. A merge costs one step per touched slot, so the rule keeps it to at
// most BatchRows/8 steps (a COUNT table's 4 B a slot) and fewer for heavier
// ops, while a shape's tables stay within half a byte per table row.
const maxBlockTableBytes = BatchRows / 2

// BlockShape returns the key of the plan's accumulator shape and reports
// whether its scans can merge recorded block tables: the plan has no filter
// and a dense geometry. Plans with equal keys bin the same fields the same
// way, in the same order, and fold the same op columns in the same order
// (SUM(x) and AVG(x) share one shape; COUNT adds no column), so over one
// view they compute the same slot for every row and share block tables.
// The key leaves the dense geometry out: a later view whose MinMax or
// dictionary widened a domain keeps the key and brings a new geometry,
// which the tables of the old one do not serve (Blocks.Serves).
func (c *Compiled) BlockShape() (string, bool) {
	k, ok := c.AppendBlockShape(nil)
	return string(k), ok
}

// AppendBlockShape is BlockShape appending the key to dst: a lookup that
// passes a stack buffer and indexes its map with string(key) allocates
// nothing.
func (c *Compiled) AppendBlockShape(dst []byte) ([]byte, bool) {
	if len(c.predKern) > 0 || c.geom.slots() == 0 {
		return dst, false
	}
	for _, b := range c.Query.Bins {
		dst = strconv.AppendQuote(dst, b.Field)
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(b.Kind), 10)
		for _, v := range []float64{b.Width, b.Origin} {
			dst = append(dst, '|')
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		dst = append(dst, ';')
	}
	for _, op := range c.aggOps {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(op.code), 10)
		dst = strconv.AppendQuote(dst, c.Query.Aggs[op.slot].Field)
	}
	return dst, true
}

// Blocks holds one accumulator shape's recorded block tables over the
// aligned blocks of one table lineage: table i is the fold of rows
// [i·BatchRows, (i+1)·BatchRows). Rows are immutable within a lineage, so a
// table recorded for one view holds for every later, grown one. Each block
// has one slot in a dataset.BlockDir, set once: a scan that finds it nil
// records the block and publishes its table, or blockUnrecordable, with a
// compare-and-swap from nil, so two scans racing on a block both hold a
// correct table and one of them is kept. A kept table's bytes go to the
// shape's ledger; one the ledger refuses is taken out again.
type Blocks struct {
	geom   denseGeom
	codes  []uint8 // the shape's op classes, in op order
	rows   int     // the row count of the view the tables were made for
	ledger BlockLedger
	// maxSlots is the most slots a block's table may cover under
	// maxBlockTableBytes, and wide is set while the last block recorded
	// covered more (recordBlock).
	maxSlots int
	wide     atomic.Bool
	// dropped is set when the ledger lets the shape go: scans stop reading
	// and recording its tables and fold their rows.
	dropped atomic.Bool
	dir     dataset.BlockDir[blockTable]
}

// BlockLedger counts the bytes of one Blocks' kept tables against a cap.
type BlockLedger interface {
	// Admit reports whether a table of n bytes, just published, may stay;
	// when it may, the ledger has counted it.
	Admit(n int64) bool
}

// blockTable is one block's accumulator table in compact form, over the
// slots the block touches only: their ids in ascending order and their
// counts, as uint16 (a dense geometry has at most denseMaxSlots slots, and
// a block at most BatchRows rows), then per op, in op order, a run over
// those slots of shifted moments (SUM/AVG) or of mins or maxes. Moments
// keep the (K, S1, S2) form, so merging one re-shifts exactly where
// GroupState.Merge does and an integer-valued SUM stays bitwise the row
// fold's.
type blockTable struct {
	slots, n []uint16
	m        []Moments
	f        []float64
}

// blockUnrecordable is the one table every block over maxBlockTableBytes
// holds: a scan that finds it folds the block's rows and records nothing.
var blockUnrecordable = new(blockTable)

// The largest slot id must fit a blockTable's uint16.
const _ = uint16(denseMaxSlots - 1)

// blockTableBytes is the size of a block table over k touched slots with
// nm moments runs and nf min/max runs, its header included.
func blockTableBytes(k, nm, nf int) int {
	return int(unsafe.Sizeof(blockTable{})) + k*(4+nm*int(unsafe.Sizeof(Moments{}))+nf*8)
}

func (bt *blockTable) bytes() int {
	k := len(bt.slots)
	return blockTableBytes(k, len(bt.m)/k, len(bt.f)/k)
}

// NewBlocks returns an empty record of plan's shape (Compiled.BlockShape)
// whose kept tables l counts; a nil l keeps every table.
func NewBlocks(plan *Compiled, l BlockLedger) *Blocks {
	b := &Blocks{geom: plan.geom, rows: plan.NumRows, ledger: l}
	for _, op := range plan.aggOps {
		b.codes = append(b.codes, op.code)
	}
	nm, nf := opRuns(plan.aggOps)
	b.maxSlots = (maxBlockTableBytes - blockTableBytes(0, 0, 0)) / (blockTableBytes(1, nm, nf) - blockTableBytes(0, 0, 0))
	return b
}

// Drop stops every scan from reading or recording b's tables and lets them
// go, including those of shards that still hold b: a ledger's eviction.
func (b *Blocks) Drop() {
	b.dropped.Store(true)
	b.dir.Reset()
}

// Supersedes reports whether plan's view is larger than the one b's tables
// were made for. A lineage's domains only widen, so a plan of b's shape key
// that b does not serve is from a newer view exactly when it is from a
// larger one.
func (b *Blocks) Supersedes(plan *Compiled) bool { return plan.NumRows > b.rows }

// Serves reports whether plan's scans can merge b's tables: plan has b's
// shape in the geometry, and so the slot layout, b's tables use.
func (b *Blocks) Serves(plan *Compiled) bool {
	if plan.geom != b.geom || len(plan.predKern) > 0 || len(plan.aggOps) != len(b.codes) {
		return false
	}
	for k, op := range plan.aggOps {
		if op.code != b.codes[k] {
			return false
		}
	}
	return true
}

// admit reports whether a table of n bytes just published in b may stay.
func (b *Blocks) admit(n int) bool { return b.ledger == nil || b.ledger.Admit(int64(n)) }

// opRuns counts ops' moments runs and min/max runs.
func opRuns(ops []aggOp) (nm, nf int) {
	for _, op := range ops {
		if op.code == aggOpMoments {
			nm++
		} else {
			nf++
		}
	}
	return nm, nf
}

// recordBlock folds whole block [lo, lo+BatchRows) of g's unfiltered dense
// plan and returns its table for b. The rows fold into the scratch's
// recording table, as scanBatch folds them, and the slots they touched
// alone are copied out and emptied again. A table over b.maxSlots is not
// made: the rows fold into g instead, and recordBlock returns
// blockUnrecordable.
//
// The touched slots are listed by whichever is shorter to read: the
// recording table's counts, after the fold, in a geometry of at most
// BatchRows slots; else the block's rows, marked in the scratch's bitmap
// before it (markSlots) — which stops at the first slot past b.maxSlots,
// so an unrecordable block is folded once. A small geometry's blocks are
// marked too while b's last block was over (b.wide): the blocks of a
// permuted table are alike, so one cheap test saves a second fold per
// block of a wide shape.
func (g *GroupState) recordBlock(sc *scanScratch, lo int, b *Blocks) *blockTable {
	plan := g.plan
	size := plan.geom.slots()
	slots := sc.slots[:]
	plan.slotsRange(lo, slots, sc.slotsB[:])
	in := sc.gatherRange(plan, lo, BatchRows)
	marked := size > BatchRows || b.wide.Load()
	if marked && !sc.markSlots(slots, size, b.maxSlots) {
		b.setWide(true)
		g.t.accumulate(plan.aggOps, slots, in)
		return blockUnrecordable
	}
	rec := sc.recorder(plan)
	rec.accumulate(plan.aggOps, slots, in)
	var touched []uint16
	if marked {
		touched = sc.markedSlots(size)
	} else {
		touched = touchedSlots(rec.n, &sc.touched)
	}
	defer rec.emptyAt(plan.aggOps, touched)
	k := len(touched)
	b.setWide(k > b.maxSlots)
	if k > b.maxSlots {
		g.t.accumulate(plan.aggOps, slots, in)
		return blockUnrecordable
	}
	ids := make([]uint16, 2*k)
	bt := &blockTable{slots: ids[:k:k], n: ids[k:]}
	copy(bt.slots, touched)
	for j, s := range touched {
		bt.n[j] = uint16(rec.n[s])
	}
	nm, nf := opRuns(plan.aggOps)
	if nm > 0 {
		bt.m = make([]Moments, 0, nm*k)
	}
	if nf > 0 {
		bt.f = make([]float64, 0, nf*k)
	}
	for _, op := range plan.aggOps {
		switch op.code {
		case aggOpMoments:
			col := rec.m[op.slot]
			for _, s := range touched {
				bt.m = append(bt.m, col[s])
			}
		case aggOpMin:
			bt.f = appendRun(bt.f, rec.mins[op.slot], touched)
		case aggOpMax:
			bt.f = appendRun(bt.f, rec.maxs[op.slot], touched)
		}
	}
	return bt
}

// touchedSlots lists, ascending, the slots of cnt that hold rows. The walk
// reads the counts without a branch: each slot id is written to the next
// entry of the scratch's list and kept when its count is not 0.
func touchedSlots(cnt []int64, dst *[denseMaxSlots]uint16) []uint16 {
	k := 0
	for s, n := range cnt {
		dst[k&(denseMaxSlots-1)] = uint16(s)
		if n != 0 {
			k++
		}
	}
	return dst[:k]
}

// markSlots marks slots, of a geometry of size slots, in the scratch's
// bitmap and reports whether they are at most max distinct ones; when not,
// it stops at the first past max and clears the bitmap. It sets a slot's
// bit on its first touch only: an unconditional set would chain every row
// through a store to the same few words.
func (sc *scanScratch) markSlots(slots []int32, size, max int) bool {
	words, k := sc.marks[:(size+63)/64], 0
	for _, s := range slots {
		if w, bit := s>>6, uint64(1)<<(s&63); words[w]&bit == 0 {
			words[w] |= bit
			if k++; k > max {
				clear(words)
				return false
			}
		}
	}
	return true
}

// markedSlots lists, ascending, the slots markSlots marked, and clears the
// bitmap.
func (sc *scanScratch) markedSlots(size int) []uint16 {
	words, k := sc.marks[:(size+63)/64], 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			sc.touched[k] = uint16(w<<6 | bits.TrailingZeros64(word))
			k++
		}
		words[w] = 0
	}
	return sc.touched[:k]
}

// setWide records whether the last block recorded for b was over
// b.maxSlots, writing only a change.
func (b *Blocks) setWide(wide bool) {
	if b.wide.Load() != wide {
		b.wide.Store(wide)
	}
}

// appendRun appends col's values at slots to dst.
func appendRun(dst, col []float64, slots []uint16) []float64 {
	for _, s := range slots {
		dst = append(dst, col[s])
	}
	return dst
}

// emptyAt empties the table's slots, a recording table's touched ones.
func (t *accTable) emptyAt(ops []aggOp, slots []uint16) {
	for _, s := range slots {
		t.n[s] = 0
	}
	for _, op := range ops {
		switch op.code {
		case aggOpMoments:
			for _, s := range slots {
				t.m[op.slot][s] = unseeded
			}
		case aggOpMin:
			for _, s := range slots {
				t.mins[op.slot][s] = math.Inf(1)
			}
		case aggOpMax:
			for _, s := range slots {
				t.maxs[op.slot][s] = math.Inf(-1)
			}
		}
	}
}

// recorder returns the scratch's recording table for plan: dense over
// plan's geometry, every slot empty, its columns made on first use and
// emptied again by recordBlock after each block (accTable.emptyAt).
func (sc *scanScratch) recorder(plan *Compiled) *accTable {
	size, t := plan.geom.slots(), &sc.rec
	if len(sc.recN) < size {
		sc.recN = make([]int64, size)
	}
	t.n = sc.recN[:size]
	for len(t.m) < plan.NumAggs() {
		t.m, t.mins, t.maxs = append(t.m, nil), append(t.mins, nil), append(t.maxs, nil)
	}
	var nm, nmin, nmax int
	for _, op := range plan.aggOps {
		switch op.code {
		case aggOpMoments:
			t.m[op.slot] = recColumn(&sc.recM, nm, size, unseeded)
			nm++
		case aggOpMin:
			t.mins[op.slot] = recColumn(&sc.recMin, nmin, size, math.Inf(1))
			nmin++
		case aggOpMax:
			t.maxs[op.slot] = recColumn(&sc.recMax, nmax, size, math.Inf(-1))
			nmax++
		}
	}
	return t
}

// recColumn returns the i-th of cols, at least size long and filled with
// empty when it is made.
func recColumn[T any](cols *[][]T, i, size int, empty T) []T {
	if i == len(*cols) {
		*cols = append(*cols, nil)
	}
	if len((*cols)[i]) < size {
		(*cols)[i] = filled(size, empty)
	}
	return (*cols)[i][:size]
}

// mergeBlock folds a block table of g's shape into g over the slots it
// touched: each op run against the counts before the block, then the
// counts.
func (g *GroupState) mergeBlock(bt *blockTable) {
	t := &g.t
	k := len(bt.slots)
	m, f := bt.m, bt.f
	for _, op := range g.plan.aggOps {
		switch op.code {
		case aggOpMoments:
			col, src := t.m[op.slot], m[:k]
			for j, s := range bt.slots {
				col[s].merge(t.n[s], src[j], int64(bt.n[j]))
			}
			m = m[k:]
		case aggOpMin:
			col, src := t.mins[op.slot], f[:k]
			for j, s := range bt.slots {
				if v := src[j]; v < col[s] {
					col[s] = v
				}
			}
			f = f[k:]
		case aggOpMax:
			col, src := t.maxs[op.slot], f[:k]
			for j, s := range bt.slots {
				if v := src[j]; v > col[s] {
					col[s] = v
				}
			}
			f = f[k:]
		}
	}
	for j, s := range bt.slots {
		t.n[s] += int64(bt.n[j])
	}
}
