package dataset

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Derived bin-code columns. Every query the benchmark issues is a binned
// group-by, and a front end gives a field one binning per plot shape, so the
// bin index of a quantitative value — a subtract, a divide, a truncate and a
// correction — is recomputed by every scan from the same 8-byte column. A bin
// code column stores that index once, as one byte per row, per distinct
// (width, origin) a plan has asked for. Like MinMax it is a memo on the
// column, built lazily by the first caller and invisible to EncodeTable and
// checkpoints; unlike MinMax it belongs to the column *lineage*: a
// TableAppender hands one registry to every view it mints and a view extends
// the codes by the rows it has and the registry lacks, always past the old
// length, so the shorter slices older views (and their compiled plans) hold
// stay valid — the copy-on-write discipline the value storage itself follows.

const (
	// binCodeSlots is how many distinct bin indices one code byte addresses. A
	// binning whose planned domain is wider keeps computing indices from the
	// values.
	binCodeSlots = 256

	// maxBinCodings caps the derived columns one column lineage carries, and so
	// its worst-case overhead at 4 B/row beside the 8 B/row of values. A field
	// has one binning per plot shape it appears in (two in the IDEBench
	// workflows: 1-D histogram, 2-D heat map), so the cap is headroom against
	// a client that sweeps widths, not a working-set size.
	maxBinCodings = 4
)

// BinCoder computes bin codes in bulk: dst[i] = index(src[i]) - base under
// the binning (width, origin), for len(dst) == len(src) rows, and reports
// whether every difference fit a byte. The engine passes its one bin-index
// definition, so this package holds no copy of it.
type BinCoder func(dst []uint8, src []float64, width, origin float64, base int64) bool

// binCodeSet is the registry of one column lineage's derived bin-code
// columns. mu guards only the entry list: building or extending one binning
// excludes per entry, so it never blocks the lookup of another.
type binCodeSet struct {
	mu      sync.Mutex
	entries []*binCoding
	builds  atomic.Int64 // full (from row 0) builds, for tests and telemetry
}

// binCoding is one (width, origin)'s code column. mu is held across its build
// and each extension.
type binCoding struct {
	width, origin float64

	mu    sync.Mutex
	built bool
	// dead marks a binning whose values left the byte: the lineage's bounds
	// only ever widen, so it stays arithmetic for good and holds no storage.
	dead  bool
	base  int64   // codes[i] + base is row i's bin index
	codes []uint8 // grown by append only; published prefixes are immutable
}

// entry returns the coding of (width, origin), inserting an unbuilt one when
// create is set and the lineage has room.
func (s *binCodeSet) entry(width, origin float64, create bool) *binCoding {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.width == width && e.origin == origin {
			return e
		}
	}
	if !create || len(s.entries) >= maxBinCodings {
		return nil
	}
	e := &binCoding{width: width, origin: origin}
	s.entries = append(s.entries, e)
	return e
}

// binCodeSet returns the column's registry, starting an empty one on first
// use (lineage views are handed theirs at construction).
func (c *Column) binCodeSet() *binCodeSet {
	c.mmMu.Lock()
	defer c.mmMu.Unlock()
	if c.bins == nil {
		c.bins = &binCodeSet{}
	}
	return c.bins
}

// BinCodes returns the derived code column of the binning (width, origin)
// over this view's rows: codes[i] + base is the bin index of Nums[i]. lo and
// hi are the bin indices of the view's value bounds (MinMax) under that
// binning — the plan's domain. ok is false, and the caller bins from the
// values instead, when the domain spans more than a byte's 256 indices, the
// lineage already carries its cap of distinct binnings, or its values have
// outgrown the byte since the binning was built.
//
// The first caller for a binning pays the O(rows) build; base is fixed then,
// with the domain centred in the byte, so appends that move the bounds by up
// to (256 - domain)/2 bins either way keep the same codes. Later callers pay
// only for rows their view has beyond the memo. With build false nothing is
// ever built from scratch — a missing, unbuilt or momentarily busy binning
// reports !ok — which is what a caller holding a hot lock wants: its cost is
// bounded by the rows appended since the last call.
func (c *Column) BinCodes(width, origin float64, lo, hi int64, code BinCoder, build bool) (codes []uint8, base int64, ok bool) {
	// A negative span is an empty domain, or one so wide it wrapped int64.
	span := hi - lo
	if c.Field.Kind != Quantitative || span < 0 {
		return nil, 0, false
	}
	set := c.binCodeSet()
	e := set.entry(width, origin, build && span < binCodeSlots)
	if e == nil {
		return nil, 0, false
	}
	if build {
		e.mu.Lock()
	} else if !e.mu.TryLock() {
		return nil, 0, false
	}
	defer e.mu.Unlock()
	if e.dead {
		return nil, 0, false
	}
	if !e.built {
		if !build {
			return nil, 0, false
		}
		e.built = true
		e.base = lo - (binCodeSlots-1-span)/2
		set.builds.Add(1)
	}
	n := len(c.Nums)
	fits := lo >= e.base && hi < e.base+binCodeSlots
	if have := len(e.codes); fits && have < n {
		e.codes = slices.Grow(e.codes, n-have)[:n]
		fits = code(e.codes[have:], c.Nums[have:], width, origin, e.base)
	}
	if !fits {
		e.dead, e.codes = true, nil
		return nil, 0, false
	}
	return e.codes[:n:n], e.base, true
}

// BinCodeBuilds returns how many bin-code columns the column's lineage has
// built from scratch (extensions by appended rows are not builds).
func (c *Column) BinCodeBuilds() int64 {
	return c.binCodeSet().builds.Load()
}
