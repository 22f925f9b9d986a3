package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"idebench/internal/wire"
)

// The binary form of a Result is what the serving tier streams (the JSON
// document in json.go is the report/inspection form). One header, then the
// bins as columns:
//
//	byte     resultTag (kind 2, codec version 1)
//	byte     flags: complete | coverage | degraded | margins | keysB
//	varint   rows_seen, total_rows, watermark
//	coverage block, when flagged:
//	  varint partitions_answered, partitions_total; f64 population_fraction
//	uvarint  bins, aggs
//	keys     per bin, ascending BinKey order: varint A [, varint B if keysB]
//	values   bins × aggs raw little-endian IEEE-754, bin-major
//	margins  the same shape, present when flagged
//
// keysB is clear when every key's B is 0 (a 1-D result) and margins is clear
// when every margin is +0 (an exact result), so the common final frame is
// keys plus one float column. Floats are bit patterns: ±Inf, NaN and -0
// cross unchanged, and there is no value the encoder refuses.
const resultTag = 0x21

const (
	resultComplete = 1 << iota
	resultCoverage
	resultDegraded
	resultMargins
	resultKeysB
	resultFlagsEnd
)

// binRef is one map entry of a Result while AppendBinary orders the bins.
type binRef struct {
	key BinKey
	bv  *BinValue
}

// refScratch recycles the sorted-bin slice AppendBinary needs, so encoding
// into a buffer with room allocates nothing.
var refScratch = sync.Pool{New: func() any { return new([]binRef) }}

func compareRefs(a, b binRef) int {
	switch {
	case a.key.Less(b.key):
		return -1
	case b.key.Less(a.key):
		return 1
	}
	return 0
}

// AppendBinary appends the binary form of r to dst. The aggregate count is
// the widest bin's; a bin with fewer values or margins (no engine renders
// one) is padded with zeros.
func (r *Result) AppendBinary(dst []byte) []byte {
	sp := refScratch.Get().(*[]binRef)
	refs := (*sp)[:0]
	na := 0
	flags := byte(0)
	for k, bv := range r.Bins {
		refs = append(refs, binRef{k, bv})
		na = max(na, len(bv.Values), len(bv.Margins))
		if k.B != 0 {
			flags |= resultKeysB
		}
		for _, m := range bv.Margins {
			if math.Float64bits(m) != 0 {
				flags |= resultMargins
			}
		}
	}
	slices.SortFunc(refs, compareRefs)
	if r.Complete {
		flags |= resultComplete
	}
	if c := r.Coverage; c != nil {
		flags |= resultCoverage
		if c.Degraded {
			flags |= resultDegraded
		}
	}

	dst = append(dst, resultTag, flags)
	dst = binary.AppendVarint(dst, r.RowsSeen)
	dst = binary.AppendVarint(dst, r.TotalRows)
	dst = binary.AppendVarint(dst, r.Watermark)
	if c := r.Coverage; c != nil {
		dst = binary.AppendVarint(dst, int64(c.PartitionsAnswered))
		dst = binary.AppendVarint(dst, int64(c.PartitionsTotal))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.PopulationFraction))
	}
	dst = binary.AppendUvarint(dst, uint64(len(refs)))
	dst = binary.AppendUvarint(dst, uint64(na))
	for _, b := range refs {
		dst = binary.AppendVarint(dst, b.key.A)
		if flags&resultKeysB != 0 {
			dst = binary.AppendVarint(dst, b.key.B)
		}
	}
	for _, b := range refs {
		dst = appendPadded(dst, b.bv.Values, na)
	}
	if flags&resultMargins != 0 {
		for _, b := range refs {
			dst = appendPadded(dst, b.bv.Margins, na)
		}
	}
	clear(refs) // drop the BinValue pointers before the slice is pooled
	*sp = refs
	refScratch.Put(sp)
	return dst
}

// appendPadded appends vs as a run of exactly n floats.
func appendPadded(dst []byte, vs []float64, n int) []byte {
	dst = wire.AppendFloat64s(dst, vs[:min(len(vs), n)])
	for i := len(vs); i < n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, 0)
	}
	return dst
}

// resultLayout is what a binary result's header says about its body, once
// the whole encoding has been checked against it.
type resultLayout struct {
	head     Result // everything but the bins
	bins, na int
	keysB    bool
	margins  bool
	body     []byte // keys, then the float columns
}

// scanResult checks data end to end — header, counts against the bytes that
// remain, every key varint, the exact column length — allocating nothing but
// a coverage block, so that a layout it returns can be filled without a
// further check.
func scanResult(data []byte) (resultLayout, error) {
	var l resultLayout
	rd := wire.NewReader(data)
	if tag := rd.Byte(); tag != resultTag {
		return l, fmt.Errorf("query: result tag %#x, want %#x", tag, resultTag)
	}
	flags := rd.Byte()
	if flags >= resultFlagsEnd {
		return l, fmt.Errorf("query: unknown result flags %#x", flags)
	}
	if flags&resultDegraded != 0 && flags&resultCoverage == 0 {
		return l, fmt.Errorf("query: result flags %#x mark a degraded result without coverage", flags)
	}
	l.head.Complete = flags&resultComplete != 0
	l.keysB, l.margins = flags&resultKeysB != 0, flags&resultMargins != 0
	l.head.RowsSeen = rd.Varint()
	l.head.TotalRows = rd.Varint()
	l.head.Watermark = rd.Varint()
	if flags&resultCoverage != 0 {
		l.head.Coverage = &Coverage{
			Degraded:           flags&resultDegraded != 0,
			PartitionsAnswered: int(rd.Varint()),
			PartitionsTotal:    int(rd.Varint()),
			PopulationFraction: rd.Float64(),
		}
	}
	keyCols, cols := 1, 1
	if l.keysB {
		keyCols = 2
	}
	if l.margins {
		cols = 2
	}
	l.bins = rd.Count(keyCols)
	// The float columns are bins×aggs×cols×8 bytes; dividing the unread length
	// instead of multiplying the counts keeps a hostile header from
	// overflowing into a small product.
	if aggs := rd.Uvarint(); l.bins > 0 {
		if aggs > uint64(rd.Len()/8/cols/l.bins) {
			rd.Fail(wire.ErrShort)
		}
		l.na = int(aggs)
	}
	l.body = rd.Take(rd.Len())
	keys := wire.NewReader(l.body)
	for i := 0; i < l.bins*keyCols; i++ {
		keys.Uvarint()
	}
	if err := keys.Err(); err != nil {
		rd.Fail(err)
	} else if want := 8 * cols * l.na * l.bins; rd.Err() == nil && keys.Len() != want {
		rd.Fail(fmt.Errorf("%d column bytes, want %d", keys.Len(), want))
	}
	if err := rd.Err(); err != nil {
		return l, fmt.Errorf("query: decode result: %w", err)
	}
	return l, nil
}

// CheckBinary reports whether data is a well-formed binary result — exactly
// the inputs UnmarshalBinary accepts — without decoding it. A receiver that
// keeps a frame's bytes and decodes them only when asked checks them on
// arrival with this.
func CheckBinary(data []byte) error {
	_, err := scanResult(data)
	return err
}

// UnmarshalBinary decodes the binary form into r; data must hold the whole
// encoding and nothing after it. The bins land in one BinValue slab and one
// float slab, both sized from the bytes actually present — never from a
// header count alone — and nothing in r aliases data.
func (r *Result) UnmarshalBinary(data []byte) error {
	l, err := scanResult(data)
	if err != nil {
		return err
	}
	bins, na := l.bins, l.na
	out := l.head
	out.Bins = make(map[BinKey]*BinValue, bins)
	bvs := make([]BinValue, bins)
	floats := make([]float64, 2*na*bins)
	values, margins := floats[:na*bins], floats[na*bins:]
	rd := wire.NewReader(l.body)
	for i := range bvs {
		k := BinKey{A: rd.Varint()}
		if l.keysB {
			k.B = rd.Varint()
		}
		bv := &bvs[i]
		bv.Values = values[i*na : (i+1)*na : (i+1)*na]
		bv.Margins = margins[i*na : (i+1)*na : (i+1)*na]
		out.Bins[k] = bv
	}
	rd.Float64s(values)
	if l.margins {
		rd.Float64s(margins)
	}
	*r = out
	return nil
}
