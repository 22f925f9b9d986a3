package engine

import (
	"math"
	"strconv"

	"idebench/internal/dataset"
)

// Block tables (README.md, "Per-block scan"): the accumulator table an
// unfiltered dense 1-D plan folds over one aligned block of BatchRows rows
// depends on nothing but the block's rows and the plan's accumulator shape —
// the binning, its dense geometry and each aggregate op's class and input —
// so it can be recorded once per block and merged by every later scan of
// that shape (the first stage of GroupState.ScanRangeReusing's chain):
// about one slot merge per bin instead of BatchRows row folds.

// blockMaxSlots caps the dense geometry a shape may record: merging a block
// table costs one step per slot, so past BatchRows/8 slots it saves less
// than an eighth of the fold while its tables grow toward the block's size.
const blockMaxSlots = BatchRows / 8

// BlockShape returns the key of the plan's accumulator shape and reports
// whether its scans can merge recorded block tables: the plan has no filter
// and a dense 1-D geometry of at most blockMaxSlots slots. Plans with equal
// keys bin the same field the same way and fold the same op columns in the
// same order (SUM(x) and AVG(x) share one shape; COUNT adds no column), so
// over one view they compute the same slot for every row and share block
// tables. The key leaves the dense geometry out: a later view whose MinMax
// widened the domain keeps the key and brings a new geometry, which the
// tables of the old one do not serve (Blocks.Serves).
func (c *Compiled) BlockShape() (string, bool) {
	k, ok := c.AppendBlockShape(nil)
	return string(k), ok
}

// AppendBlockShape is BlockShape appending the key to dst: a lookup that
// passes a stack buffer and indexes its map with string(key) allocates
// nothing.
func (c *Compiled) AppendBlockShape(dst []byte) ([]byte, bool) {
	if len(c.predKern) > 0 || len(c.binKern) != 1 || c.geom.slots() > blockMaxSlots {
		return dst, false
	}
	b := c.Query.Bins[0]
	dst = strconv.AppendQuote(dst, b.Field)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(b.Kind), 10)
	for _, v := range []float64{b.Width, b.Origin} {
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
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
// folds the block itself and publishes the result with a compare-and-swap
// from nil, so two scans racing on a block both hold a correct table and
// one of them is kept.
type Blocks struct {
	geom  denseGeom
	codes []uint8 // the shape's op classes, in op order
	rows  int     // the row count of the view the tables were made for
	dir   dataset.BlockDir[blockTable]
}

// blockTable is one block's accumulator table in compact form: counts as
// uint16 (a block has at most BatchRows rows), then per op, in op order, a
// slot-long run of shifted moments (SUM/AVG) or of mins/maxes. Moments keep
// the (K, S1, S2) form, so merging one re-shifts exactly where GroupState.Merge
// does and an integer-valued SUM stays bitwise the row fold's.
type blockTable struct {
	n []uint16
	m []Moments
	f []float64
}

// NewBlocks returns an empty record of plan's shape (Compiled.BlockShape).
func NewBlocks(plan *Compiled) *Blocks {
	b := &Blocks{geom: plan.geom, rows: plan.NumRows}
	for _, op := range plan.aggOps {
		b.codes = append(b.codes, op.code)
	}
	return b
}

// Supersedes reports whether plan's view is larger than the one b's tables
// were made for. A lineage's domains only widen, so a plan of b's shape key
// that b does not serve is from a newer view exactly when it is from a
// larger one.
func (b *Blocks) Supersedes(plan *Compiled) bool { return plan.NumRows > b.rows }

// Serves reports whether plan's scans can merge b's tables: plan has b's
// shape in the geometry, and so the slot layout, b's tables use.
func (b *Blocks) Serves(plan *Compiled) bool {
	if plan.geom != b.geom || len(plan.binKern) != 1 || len(plan.predKern) > 0 || len(plan.aggOps) != len(b.codes) {
		return false
	}
	for k, op := range plan.aggOps {
		if op.code != b.codes[k] {
			return false
		}
	}
	return true
}

// empty resets a dense table to no bins, in place.
func (t *accTable) empty() {
	clear(t.n)
	for i := range t.m {
		fill(t.m[i], unseeded)
		fill(t.mins[i], math.Inf(1))
		fill(t.maxs[i], math.Inf(-1))
	}
}

// compactBlock copies a block's dense table into block form, ops in plan
// order.
func compactBlock(t *accTable, ops []aggOp) *blockTable {
	slots, nm := len(t.n), 0
	for _, op := range ops {
		if op.code == aggOpMoments {
			nm++
		}
	}
	bt := &blockTable{n: make([]uint16, slots)}
	if nm > 0 {
		bt.m = make([]Moments, 0, nm*slots)
	}
	if nf := len(ops) - nm; nf > 0 {
		bt.f = make([]float64, 0, nf*slots)
	}
	for s, n := range t.n {
		bt.n[s] = uint16(n)
	}
	for _, op := range ops {
		switch op.code {
		case aggOpMoments:
			bt.m = append(bt.m, t.m[op.slot]...)
		case aggOpMin:
			bt.f = append(bt.f, t.mins[op.slot]...)
		case aggOpMax:
			bt.f = append(bt.f, t.maxs[op.slot]...)
		}
	}
	return bt
}

// mergeBlock folds a block table of g's shape into g, slot for slot: each
// op column against the counts before the block, then the counts.
func (g *GroupState) mergeBlock(bt *blockTable) {
	t := &g.t
	cnt := t.n[:len(bt.n)]
	m, f := bt.m, bt.f
	for _, op := range g.plan.aggOps {
		switch op.code {
		case aggOpMoments:
			col, src := t.m[op.slot][:len(cnt)], m[:len(cnt)]
			for s, on := range bt.n {
				if on > 0 {
					col[s].merge(cnt[s], src[s], int64(on))
				}
			}
			m = m[len(cnt):]
		case aggOpMin:
			col, src := t.mins[op.slot][:len(cnt)], f[:len(cnt)]
			for s, v := range src {
				if v < col[s] {
					col[s] = v
				}
			}
			f = f[len(cnt):]
		case aggOpMax:
			col, src := t.maxs[op.slot][:len(cnt)], f[:len(cnt)]
			for s, v := range src {
				if v > col[s] {
					col[s] = v
				}
			}
			f = f[len(cnt):]
		}
	}
	for s, on := range bt.n {
		cnt[s] += int64(on)
	}
}
