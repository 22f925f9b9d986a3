package dataset

import (
	"sync"
	"sync/atomic"
)

// The block grid. Every per-block memo — block orders here, the engine's
// block tables and recorded selections, the shared scan's claims — cuts the
// rows of a table lineage into the same aligned blocks: block i is rows
// [i·BlockRows, (i+1)·BlockRows). A lineage only grows at its end, so a
// block once whole holds the same rows in every later view.

// BlockRows is the rows of one block of the grid.
const BlockRows = 4096

// A block order stores a block's row offsets as uint16, so a block may hold
// at most 65536 rows: past that, this conversion fails to compile.
const _ = uint16(BlockRows - 1)

// dirChunk is the slots one BlockDir chunk holds: 64 blocks, 256k rows.
const dirChunk = 64

// BlockDir is a grow-only directory of one pointer per block, for the memos
// that record something per block of a lineage. Its slots sit in chunks of
// dirChunk atomic pointers: reads take no lock, and growth, under a mutex,
// publishes a longer chunk list that carries the existing chunks over, so a
// value stored in a slot — before, during or after the growth — stays in it.
// The zero value is an empty directory.
type BlockDir[T any] struct {
	grow   sync.Mutex
	chunks atomic.Pointer[[]*[dirChunk]atomic.Pointer[T]]
}

// Slot returns block i's slot, growing the directory to hold it. A slot
// holds nil until a value is stored in it.
func (d *BlockDir[T]) Slot(i int) *atomic.Pointer[T] {
	cs := d.chunks.Load()
	if cs == nil || i/dirChunk >= len(*cs) {
		cs = d.cover(i/dirChunk + 1)
	}
	return &(*cs)[i/dirChunk][i%dirChunk]
}

// cover grows the directory to at least n chunks.
func (d *BlockDir[T]) cover(n int) *[]*[dirChunk]atomic.Pointer[T] {
	d.grow.Lock()
	defer d.grow.Unlock()
	var old []*[dirChunk]atomic.Pointer[T]
	if cs := d.chunks.Load(); cs != nil {
		if n <= len(*cs) {
			return cs
		}
		old = *cs
	}
	cs := append(make([]*[dirChunk]atomic.Pointer[T], 0, n), old...)
	for len(cs) < n {
		cs = append(cs, new([dirChunk]atomic.Pointer[T]))
	}
	d.chunks.Store(&cs)
	return &cs
}

// Reset empties the directory. A slot handed out before keeps its value but
// is no longer reachable from the directory, so what the directory held is
// let go once its readers drop it.
func (d *BlockDir[T]) Reset() {
	d.grow.Lock()
	defer d.grow.Unlock()
	d.chunks.Store(nil)
}
