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

// BlockOrder is one column lineage's block-order memo: for block b the
// offsets 0..BlockRows-1 sorted by the rows' values, ties by offset, as
// uint16 — 2 bytes per row of every block built. A block's slot in the
// directory is nil until a scan claims the block by a compare-and-swap to
// orderBuilding, so each order is built once; the claimant then stores the
// order, or orderUnindexable. A reader that finds either sentinel tests the
// rows instead. The zero value is an empty memo.
type BlockOrder struct {
	dir BlockDir[blockOrd]
	// slab is storage for the next builds' orders, allocated
	// orderSlabBlocks orders at a time: a build takes one under mu, and all
	// but one build in orderSlabBlocks allocate nothing.
	mu   sync.Mutex
	slab []blockOrd
	// builds counts the block orders built, for tests and telemetry.
	builds atomic.Int64
}

// blockOrd is one block's order.
type blockOrd [BlockRows]uint16

// The two sentinels a block's slot holds while it has no order to read: a
// build in progress, and a block holding a NaN, which no order places.
var orderBuilding, orderUnindexable = new(blockOrd), new(blockOrd)

// orderSlabBlocks is how many orders one slab allocation holds: 64 KiB, the
// most a column's memo holds unused.
const orderSlabBlocks = 8

// BlockOrder returns the column lineage's block-order memo, starting an
// empty one on first use (lineage views are handed theirs at construction).
// It builds nothing: orders are built by Nums and Codes, one block at a
// time.
func (c *Column) BlockOrder() *BlockOrder {
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
	slot, ord := o.claim(b, len(nums))
	if slot == nil {
		return ord
	}
	sc := orderScratchPool.Get().(*orderScratch)
	ok := sc.sortNums(ord, nums[b*BlockRows:(b+1)*BlockRows])
	orderScratchPool.Put(sc)
	return o.publish(slot, ord, ok)
}

// Codes is Nums for the dictionary codes of a nominal column.
func (o *BlockOrder) Codes(b int, codes []uint32) []uint16 {
	slot, ord := o.claim(b, len(codes))
	if slot == nil {
		return ord
	}
	sc := orderScratchPool.Get().(*orderScratch)
	sc.sortCodes(ord, codes[b*BlockRows:(b+1)*BlockRows])
	orderScratchPool.Put(sc)
	return o.publish(slot, ord, true)
}

// claim looks up block b of a view of rows rows. A built block returns its
// order and a nil slot; a block the caller has just claimed returns its slot
// and the storage to sort into, which publish stores; every other case — a
// block the view does not hold whole, a block being built or unindexable —
// returns nils.
func (o *BlockOrder) claim(b, rows int) (*atomic.Pointer[blockOrd], []uint16) {
	if o == nil || (b+1)*BlockRows > rows {
		return nil, nil
	}
	slot := o.dir.Slot(b)
	switch p := slot.Load(); p {
	case nil:
		if slot.CompareAndSwap(nil, orderBuilding) {
			o.mu.Lock()
			if len(o.slab) == 0 {
				o.slab = make([]blockOrd, orderSlabBlocks)
			}
			ord := &o.slab[0]
			o.slab = o.slab[1:]
			o.mu.Unlock()
			return slot, ord[:]
		}
	case orderBuilding, orderUnindexable:
	default:
		return nil, p[:]
	}
	return nil, nil
}

// publish ends a claimed build: ok stores the order sorted into the
// claim's storage and returns it, !ok marks the block unindexable.
func (o *BlockOrder) publish(slot *atomic.Pointer[blockOrd], ord []uint16, ok bool) []uint16 {
	if !ok {
		slot.Store(orderUnindexable)
		return nil
	}
	o.builds.Add(1)
	slot.Store((*blockOrd)(ord))
	return ord
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
