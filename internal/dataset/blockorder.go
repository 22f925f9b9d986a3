package dataset

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Block orders. A range or IN filter is a predicate a scan has usually never
// seen, and its first conjunct tests every row of every batch. A block order
// records, for each aligned block of a column, the block's row offsets
// sorted by value, so such a predicate finds a block's passing rows with two
// binary searches per range or per IN value instead of testing all of them —
// adaptive indexing built as a side effect of queries, in the manner of
// database cracking, but kept inside each block: the rows a scan reads and
// their order do not change, only how the passing ones are found.
//
// Like the bin codes (bincodes.go) it is a memo of the column *lineage*:
// built lazily, block by block, by the first scan that asks; shared by every
// view a TableAppender mints; invisible to EncodeTable and checkpoints;
// dropped with the bounds memo by an in-place mutation. Rows are immutable
// within a lineage, so a block once whole keeps its order for every later
// view, and appended rows join the memo as they complete whole blocks.

// orderChunkBlocks is how many blocks one slab chunk holds. The slab grows
// by whole chunks — the append headroom, at most 64 KiB a column with
// 4096-row blocks — so a built order never moves and a lineage that grows
// never copies one.
const orderChunkBlocks = 8

// Block states. A block is claimed for its build by a compare-and-swap from
// orderEmpty; a reader that finds it orderBuilding or orderUnindexable scans
// instead.
const (
	orderEmpty uint32 = iota
	orderBuilding
	orderBuilt
	orderUnindexable // the block holds a NaN, which no order places
)

// BlockOrder is one column lineage's block-order memo: for block b (rows
// [b·block, (b+1)·block)) the offsets 0..block-1 sorted by the rows' values,
// ties by offset, as uint16 — 2 bytes per row of every block built. The
// block size is fixed by the first Column.BlockOrder call; the zero value is
// an empty memo.
type BlockOrder struct {
	mu    sync.Mutex // serializes directory growth and fixes block
	block int
	dir   atomic.Pointer[orderDir]
	// builds counts the block orders built, for tests and telemetry.
	builds atomic.Int64
}

// orderDir is a BlockOrder's chunk directory. It is replaced, never
// modified, when the lineage outgrows it; the chunks are carried over.
type orderDir struct{ chunks []*orderChunk }

// orderChunk is orderChunkBlocks blocks' orders and their state words.
type orderChunk struct {
	state [orderChunkBlocks]atomic.Uint32
	rows  []uint16 // block i of the chunk: rows[i·block : (i+1)·block]
}

// BlockOrder returns the column lineage's block-order memo for blocks of
// block rows, or nil when the lineage's memo was fixed to another block size
// or block is outside (0, 65536]. It builds nothing: orders are built by
// Nums and Codes, one block at a time.
func (c *Column) BlockOrder(block int) *BlockOrder {
	if block <= 0 || block > math.MaxUint16+1 {
		return nil
	}
	o := c.blockOrderMemo()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.block == 0 {
		o.block = block
		o.dir.Store(&orderDir{})
	}
	if o.block != block {
		return nil
	}
	return o
}

// blockOrderMemo returns the column's memo, starting an empty one on first
// use (lineage views are handed theirs at construction).
func (c *Column) blockOrderMemo() *BlockOrder {
	c.mmMu.Lock()
	defer c.mmMu.Unlock()
	if c.order == nil {
		c.order = &BlockOrder{}
	}
	return c.order
}

// Builds returns how many block orders the memo has built.
func (o *BlockOrder) Builds() int64 { return o.builds.Load() }

// Nums returns the order of block b of nums, the values of a view of o's
// lineage: built now if no scan has built it yet. It returns nil — the
// caller tests the rows — for a nil memo, a block the view does not hold
// whole, a block another scan is building, and a block holding a NaN.
func (o *BlockOrder) Nums(b int, nums []float64) []uint16 {
	st, ord := o.claim(b, len(nums))
	if st == nil {
		return ord
	}
	sc := orderScratchPool.Get().(*orderScratch)
	ok := sc.sortNums(ord, nums[b*o.block:(b+1)*o.block])
	orderScratchPool.Put(sc)
	return o.publish(st, ord, ok)
}

// Codes is Nums for the dictionary codes of a nominal column.
func (o *BlockOrder) Codes(b int, codes []uint32) []uint16 {
	st, ord := o.claim(b, len(codes))
	if st == nil {
		return ord
	}
	sc := orderScratchPool.Get().(*orderScratch)
	sc.sortCodes(ord, codes[b*o.block:(b+1)*o.block])
	orderScratchPool.Put(sc)
	return o.publish(st, ord, true)
}

// claim looks up block b of a view of rows rows. A built block returns its
// order and a nil state; a block the caller has just claimed returns the
// state word it must publish and the storage to sort into; every other case
// — a block the view does not hold whole, a block being built or
// unindexable — returns nils.
func (o *BlockOrder) claim(b, rows int) (*atomic.Uint32, []uint16) {
	if o == nil || (b+1)*o.block > rows {
		return nil, nil
	}
	d := o.dir.Load()
	if b/orderChunkBlocks >= len(d.chunks) {
		d = o.cover(b/orderChunkBlocks + 1)
	}
	ch, i := d.chunks[b/orderChunkBlocks], b%orderChunkBlocks
	ord := ch.rows[i*o.block : (i+1)*o.block : (i+1)*o.block]
	st := &ch.state[i]
	switch st.Load() {
	case orderBuilt:
		return nil, ord
	case orderEmpty:
		if st.CompareAndSwap(orderEmpty, orderBuilding) {
			return st, ord
		}
	}
	return nil, nil
}

// publish ends a claimed build: ok marks ord built and returns it, !ok marks
// the block unindexable.
func (o *BlockOrder) publish(st *atomic.Uint32, ord []uint16, ok bool) []uint16 {
	if !ok {
		st.Store(orderUnindexable)
		return nil
	}
	o.builds.Add(1)
	st.Store(orderBuilt)
	return ord
}

// cover grows the directory to at least chunks chunks.
func (o *BlockOrder) cover(chunks int) *orderDir {
	o.mu.Lock()
	defer o.mu.Unlock()
	d := o.dir.Load()
	if chunks <= len(d.chunks) {
		return d
	}
	nd := &orderDir{chunks: make([]*orderChunk, chunks)}
	copy(nd.chunks, d.chunks)
	for i := len(d.chunks); i < chunks; i++ {
		nd.chunks[i] = &orderChunk{rows: make([]uint16, orderChunkBlocks*o.block)}
	}
	o.dir.Store(nd)
	return nd
}

// orderScratch is one build's working set: the block's sort keys, whole
// and as the 32-bit halves a radix sort reads, and the sort's second offset
// buffer and digit counts.
type orderScratch struct {
	keys   []uint64
	half   []uint32
	tmp    []uint16
	counts [1 << radixBits]uint32
}

var orderScratchPool = sync.Pool{New: func() any { return new(orderScratch) }}

// size readies the scratch for an n-row block.
func (sc *orderScratch) size(n int) {
	if cap(sc.keys) < n {
		sc.keys, sc.half, sc.tmp = make([]uint64, n), make([]uint32, n), make([]uint16, n)
	}
	sc.keys, sc.half, sc.tmp = sc.keys[:n], sc.half[:n], sc.tmp[:n]
}

// floatKey maps a float64 to a uint64 whose unsigned order is the float's
// total order, −0 below +0: a positive value's bits with the sign set, a
// negative value's bits inverted.
func floatKey(v float64) uint64 {
	k := math.Float64bits(v)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// orderFixBudget bounds the moves sortNums' tie fix-up may make per row
// before it sorts by the low key bits too: past it the block's values share
// their high 32 key bits far more than measured data does.
const orderFixBudget = 4

// sortNums writes into ord the offsets of vals sorted by value, ties by
// offset, and reports false, leaving ord unspecified, when vals holds a NaN.
// It radix-sorts by the high 32 bits of the keys, which for data with any
// spread decides nearly every pair, then insertion-sorts the runs of equal
// high bits by the whole key; a block where that would move rows more than
// orderFixBudget times per row is radix-sorted by the low 32 bits and then
// the high 32 instead. Every step is stable, so equal values keep offset
// order.
func (sc *orderScratch) sortNums(ord []uint16, vals []float64) bool {
	sc.size(len(vals))
	keys, half := sc.keys, sc.half
	for i, v := range vals {
		if v != v {
			return false
		}
		k := floatKey(v)
		keys[i], half[i] = k, uint32(k>>32)
	}
	identity(ord)
	sc.radixSort(ord, half)
	budget := orderFixBudget * len(ord)
	for i := 1; i < len(ord); i++ {
		r := ord[i]
		k := keys[r]
		j := i
		for ; j > 0 && keys[ord[j-1]] > k && keys[ord[j-1]]>>32 == k>>32; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = r
		if budget -= i - j; budget < 0 {
			for x, k := range keys {
				half[x] = uint32(k)
			}
			identity(ord)
			sc.radixSort(ord, half)
			for x, k := range keys {
				half[x] = uint32(k >> 32)
			}
			sc.radixSort(ord, half)
			break
		}
	}
	return true
}

// sortCodes writes into ord the offsets of codes sorted by code, ties by
// offset.
func (sc *orderScratch) sortCodes(ord []uint16, codes []uint32) {
	sc.size(len(codes))
	identity(ord)
	sc.radixSort(ord, codes)
}

// identity sets ord to 0, 1, …, len(ord)-1.
func identity(ord []uint16) {
	for i := range ord {
		ord[i] = uint16(i)
	}
}

// radixBits is the widest digit radixSort sorts by in one pass.
const radixBits = 11

// radixSort stably reorders the offsets in ord by keys[offset], with the
// scratch's tmp as the second buffer: a least-significant-digit radix sort. Only the bits
// that differ between keys are sorted by, in as few digits of at most
// radixBits bits as cover them, so a block of codes from a dictionary of up
// to 2048 values takes one pass and a block of values sharing their sign and
// exponent two.
func (sc *orderScratch) radixSort(ord []uint16, keys []uint32) {
	var diff uint32
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return
	}
	low := bits.TrailingZeros32(diff)
	width := bits.Len32(diff) - low
	passes := (width + radixBits - 1) / radixBits
	digit := (width + passes - 1) / passes
	mask := uint32(1)<<digit - 1
	c := sc.counts[:mask+1]
	src, dst := ord, sc.tmp
	for p := range passes {
		shift := low + p*digit
		clear(c)
		for _, k := range keys {
			c[k>>shift&mask]++
		}
		var sum uint32
		for j, x := range c {
			c[j], sum = sum, sum+x
		}
		for _, r := range src {
			b := keys[r] >> shift & mask
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	if passes%2 != 0 {
		copy(ord, src)
	}
}
