package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"idebench/internal/query"
	"idebench/internal/wire"
)

// Partial is the exchange form of a GroupState: the per-bin accumulator
// moments of one execution fragment, before any estimator rendering. A shard
// ships Partials instead of rendered Results so the coordinator can merge
// fragments as a local parallel scan merges its worker states — a moments
// merge per aggregate, min/max folds, count sums — and then render once.
// Folding shards in a fixed order (sorted by shard ID) makes the merged
// accumulators, and therefore the rendered floats, bitwise-identical across
// runs regardless of which shard answered first.
//
// Bins are sorted by key so the binary encoding (AppendBinary) is canonical:
// two Partials of the same state encode to the same bytes.
type Partial struct {
	// RowsSeen is the fragment's folded row count (the progressive scan
	// position); Population is the fragment's total row count at the version
	// it answers against.
	RowsSeen   int64
	Population int64
	// Watermark is the fragment's data version in absorbed fact rows — the
	// shard-local engine.Appender.Watermark axis. Coordinators translate it
	// to their global axis before applying the min-watermark rule.
	Watermark int64
	// Complete marks a fragment that has folded every row of its version.
	Complete bool
	Bins     []PartialBin
}

// PartialBin carries one bin's accumulator state: one entry per aggregate in
// each of W/Mins/Maxs, the empty value (zero moments, +Inf, -Inf) where the
// aggregate's function does not use the field. A SUM/AVG aggregate's W entry
// holds the bin's (N, mean, M2), derived from its Moments at extraction.
type PartialBin struct {
	Key  query.BinKey
	N    int64
	W    []WelfordWire
	Mins []float64
	Maxs []float64
}

// wellFormed reports whether the bin could have come from GroupState.Partial:
// at least one row, and every moment entry either empty (zero count, zero
// bits) or counting exactly the bin's rows — a fold takes the moments' count
// from the bin's, so any other count would be silently misread.
func (pb *PartialBin) wellFormed() bool {
	for _, w := range pb.W {
		empty := w.N == 0 && math.Float64bits(w.Mean) == 0 && math.Float64bits(w.M2) == 0
		if !empty && w.N != pb.N {
			return false
		}
	}
	return pb.N > 0
}

// WelfordWire is one aggregate's moments on the wire in Welford's form:
// count, mean and M2 = Σ(x−mean)².
type WelfordWire struct {
	N    int64
	Mean float64
	M2   float64
}

// The binary form of a Partial is what a shard streams to its coordinator
// and what anti-entropy compares replicas by. One header, then the bins as
// columns holding IEEE-754 bit patterns, so a coordinator folds exactly the
// bits the shard read out and ±Inf/NaN need no escape:
//
//	byte     partialTag (kind 3, codec version 1)
//	byte     flags: complete | keysB
//	varint   rows_seen, population, watermark
//	uvarint  bins, aggs (aggs ≤ MaxPartialAggs)
//	aggs ×   byte column mask: welford | min | max
//	keys     per bin, in Bins order: varint A [, varint B if keysB]
//	n        bins × int64, raw little-endian
//	per aggregate, in order, each column its mask names:
//	  welford  bins × (int64 n, f64 mean, f64 m2)
//	  min      bins × f64
//	  max      bins × f64
//
// A column is present exactly when some bin holds a non-empty value in it —
// which is, for a Partial a GroupState produced, the columns aggOpsOf gives
// the aggregate's function (COUNT none, SUM/AVG welford, MIN min, MAX max).
// An absent column decodes as the empty value in every bin.
const partialTag = 0x31

const (
	partialComplete = 1 << iota
	partialKeysB
	partialFlagsEnd
)

const (
	colWelford = 1 << iota
	colMin
	colMax
	colEnd
)

// MaxPartialAggs bounds the aggregate count of a decodable Partial. Every bin
// holds an entry per aggregate whether or not the aggregate has a column on
// the wire, so without a bound a frame of empty masks could ask the decoder
// for memory far beyond its own length.
const MaxPartialAggs = 32

var (
	posInfBits = math.Float64bits(math.Inf(1))
	negInfBits = math.Float64bits(math.Inf(-1))
)

// AppendBinary appends the binary form of p to dst. There is no Partial it
// refuses; one with more than MaxPartialAggs aggregates encodes to bytes
// UnmarshalBinary rejects.
func (p *Partial) AppendBinary(dst []byte) []byte {
	na := 0
	flags := byte(0)
	if p.Complete {
		flags |= partialComplete
	}
	for i := range p.Bins {
		pb := &p.Bins[i]
		na = max(na, len(pb.W), len(pb.Mins), len(pb.Maxs))
		if pb.Key.B != 0 {
			flags |= partialKeysB
		}
	}
	dst = append(dst, partialTag, flags)
	dst = binary.AppendVarint(dst, p.RowsSeen)
	dst = binary.AppendVarint(dst, p.Population)
	dst = binary.AppendVarint(dst, p.Watermark)
	dst = binary.AppendUvarint(dst, uint64(len(p.Bins)))
	dst = binary.AppendUvarint(dst, uint64(na))

	masks := len(dst)
	dst = append(dst, make([]byte, na)...)
	for i := range p.Bins {
		pb := &p.Bins[i]
		for a, w := range pb.W {
			if w.N != 0 || math.Float64bits(w.Mean) != 0 || math.Float64bits(w.M2) != 0 {
				dst[masks+a] |= colWelford
			}
		}
		for a, v := range pb.Mins {
			if math.Float64bits(v) != posInfBits {
				dst[masks+a] |= colMin
			}
		}
		for a, v := range pb.Maxs {
			if math.Float64bits(v) != negInfBits {
				dst[masks+a] |= colMax
			}
		}
	}

	for i := range p.Bins {
		k := p.Bins[i].Key
		dst = binary.AppendVarint(dst, k.A)
		if flags&partialKeysB != 0 {
			dst = binary.AppendVarint(dst, k.B)
		}
	}
	for i := range p.Bins {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Bins[i].N))
	}
	for a := 0; a < na; a++ {
		mask := dst[masks+a]
		if mask&colWelford != 0 {
			for i := range p.Bins {
				var w WelfordWire
				if pb := &p.Bins[i]; a < len(pb.W) {
					w = pb.W[a]
				}
				dst = binary.LittleEndian.AppendUint64(dst, uint64(w.N))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.Mean))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.M2))
			}
		}
		if mask&colMin != 0 {
			for i := range p.Bins {
				bits := posInfBits
				if pb := &p.Bins[i]; a < len(pb.Mins) {
					bits = math.Float64bits(pb.Mins[a])
				}
				dst = binary.LittleEndian.AppendUint64(dst, bits)
			}
		}
		if mask&colMax != 0 {
			for i := range p.Bins {
				bits := negInfBits
				if pb := &p.Bins[i]; a < len(pb.Maxs) {
					bits = math.Float64bits(pb.Maxs[a])
				}
				dst = binary.LittleEndian.AppendUint64(dst, bits)
			}
		}
	}
	return dst
}

// UnmarshalBinary decodes the binary form into p, which must hold all of
// data's bytes and nothing after them. Bins come back in wire order, carved
// — like GroupState.Partial's — from one slab each of bins, moments and
// min/max floats; the slabs are sized only after the columns the masks
// announce are known to fit the bytes that remain, and nothing in p aliases
// data.
func (p *Partial) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if tag := rd.Byte(); tag != partialTag {
		return fmt.Errorf("engine: partial tag %#x, want %#x", tag, partialTag)
	}
	flags := rd.Byte()
	if flags >= partialFlagsEnd {
		return fmt.Errorf("engine: unknown partial flags %#x", flags)
	}
	out := Partial{Complete: flags&partialComplete != 0}
	out.RowsSeen = rd.Varint()
	out.Population = rd.Varint()
	out.Watermark = rd.Varint()
	keyBytes := 1
	if flags&partialKeysB != 0 {
		keyBytes = 2
	}
	bins := rd.Count(keyBytes + 8) // a bin is at least its key and its count
	na := rd.Count(1)
	if na > MaxPartialAggs {
		return fmt.Errorf("engine: partial with %d aggregates, limit %d", na, MaxPartialAggs)
	}
	masks := rd.Take(na)
	perBin := 8
	for _, m := range masks {
		if m >= colEnd {
			return fmt.Errorf("engine: unknown partial column mask %#x", m)
		}
		if m&colWelford != 0 {
			perBin += 24
		}
		if m&colMin != 0 {
			perBin += 8
		}
		if m&colMax != 0 {
			perBin += 8
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("engine: decode partial: %w", err)
	}

	if bins > 0 {
		out.Bins = make([]PartialBin, bins)
	}
	for i := range out.Bins {
		k := &out.Bins[i].Key
		k.A = rd.Varint()
		if keyBytes == 2 {
			k.B = rd.Varint()
		}
	}
	// After the keys the columns are exactly bins×perBin bytes: checking that
	// before carving the per-aggregate slabs is what bounds them by the frame.
	if rd.Err() == nil && rd.Len() != bins*perBin {
		rd.Fail(fmt.Errorf("%d column bytes for %d bins of %d", rd.Len(), bins, perBin))
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("engine: decode partial: %w", err)
	}
	ws := make([]WelfordWire, na*bins)
	fs := make([]float64, 2*na*bins)
	for i := range out.Bins {
		pb := &out.Bins[i]
		pb.N = int64(binary.LittleEndian.Uint64(rd.Take(8)))
		pb.W, pb.Mins, pb.Maxs = ws[:na:na], fs[:na:na], fs[na:2*na:2*na]
		ws, fs = ws[na:], fs[2*na:]
		for a := 0; a < na; a++ {
			pb.Mins[a], pb.Maxs[a] = math.Inf(1), math.Inf(-1)
		}
	}
	for a, m := range masks {
		if m&colWelford != 0 {
			for i := range out.Bins {
				b := rd.Take(24)
				out.Bins[i].W[a] = WelfordWire{
					N:    int64(binary.LittleEndian.Uint64(b)),
					Mean: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
					M2:   math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
				}
			}
		}
		if m&colMin != 0 {
			for i := range out.Bins {
				out.Bins[i].Mins[a] = rd.Float64()
			}
		}
		if m&colMax != 0 {
			for i := range out.Bins {
				out.Bins[i].Maxs[a] = rd.Float64()
			}
		}
	}
	*p = out
	return nil
}

// Partial extracts the state's accumulators in exchange form. rowsSeen,
// populationRows and watermark carry the same semantics as SnapshotScaled;
// complete marks a fully folded fragment. Every bin carries one entry per
// aggregate in each of W/Mins/Maxs — the empty value where the aggregate
// does not use the field — carved out of one backing slice per field. A
// SUM/AVG entry is the bin's Moments read out as (n, mean, M2): one divide
// per bin, here rather than per row in the scan.
func (g *GroupState) Partial(rowsSeen, populationRows, watermark int64, complete bool) *Partial {
	t := &g.t
	bins, na := t.bins(), len(t.m)
	p := &Partial{
		RowsSeen:   rowsSeen,
		Population: populationRows,
		Watermark:  watermark,
		Complete:   complete,
		Bins:       make([]PartialBin, 0, bins),
	}
	ws := make([]WelfordWire, na*bins)
	fs := make([]float64, 2*na*bins)
	for s, n := range t.n {
		if n <= 0 {
			continue
		}
		pb := PartialBin{Key: t.key(s), N: n,
			W: ws[:na:na], Mins: fs[:na:na], Maxs: fs[na : 2*na : 2*na]}
		ws, fs = ws[na:], fs[2*na:]
		for i := range pb.W {
			pb.Mins[i], pb.Maxs[i] = math.Inf(1), math.Inf(-1)
			if col := t.m[i]; col != nil {
				pb.W[i] = WelfordWire{N: n, Mean: col[s].Mean(n), M2: col[s].M2(n)}
			}
			if col := t.mins[i]; col != nil {
				pb.Mins[i] = col[s]
			}
			if col := t.maxs[i]; col != nil {
				pb.Maxs[i] = col[s]
			}
		}
		p.Bins = append(p.Bins, pb)
	}
	if !t.dense() { // a dense table's slots are already in key order
		sort.Slice(p.Bins, func(i, j int) bool { return p.Bins[i].Key.Less(p.Bins[j].Key) })
	}
	return p
}

// PartialFold merges Partials back into an accumulator table and renders the
// merged state with the same estimator math a local GroupState uses. The
// caller controls fold order: feeding shards sorted by ID gives the
// bitwise-deterministic merge the serving tier promises. Not safe for
// concurrent use.
type PartialFold struct {
	aggs []query.Aggregate
	t    accTable // key-indexed: a fold has no plan to take a domain from

	rowsSeen   int64
	population int64
	watermark  int64
	complete   bool
	added      int
}

// NewPartialFold starts an empty fold for a query with the given aggregates
// (ordering must match the Partials' producers — same query, same plan).
func NewPartialFold(aggs []query.Aggregate) *PartialFold {
	return &PartialFold{
		aggs:     aggs,
		t:        newAccTable(len(aggs), aggOpsOf(aggs), denseGeom{}),
		complete: true,
	}
}

// Add folds one fragment in. Row counts and populations sum; Complete ANDs;
// the tracked watermark is the min over added fragments (callers merging
// across shards usually translate each shard's watermark to the global axis
// first and override via Render's return, but the raw min is the right
// default for fragments sharing one axis).
//
// A Partial is decoded off a shard connection, so its bins are outside input:
// a bin without a positive row count, with a moment count other than its row
// count, or without the moments of one of the fold's SUM/AVG aggregates is one
// no GroupState of this query produces, and it is dropped rather than folded
// (a count that sums to zero or below would otherwise unmark a bin other
// fragments filled, and moments are counted by the bin's rows).
//
// A bin's wire moments (N, mean, M2) fold in as Moments{K: mean, S1: 0,
// S2: M2} over N rows — the same re-shifting merge GroupState.Merge runs.
func (f *PartialFold) Add(p *Partial) {
	t := &f.t
	for _, pb := range p.Bins {
		if !f.fits(&pb) {
			continue
		}
		s := t.slot(pb.Key)
		n := t.n[s]
		t.n[s] = n + pb.N
		for i := range t.m {
			if col := t.m[i]; col != nil {
				col[s].merge(n, Moments{K: pb.W[i].Mean, S2: pb.W[i].M2}, pb.N)
			}
			if col := t.mins[i]; col != nil && i < len(pb.Mins) && pb.Mins[i] < col[s] {
				col[s] = pb.Mins[i]
			}
			if col := t.maxs[i]; col != nil && i < len(pb.Maxs) && pb.Maxs[i] > col[s] {
				col[s] = pb.Maxs[i]
			}
		}
	}
	f.rowsSeen += p.RowsSeen
	f.population += p.Population
	f.complete = f.complete && p.Complete
	if f.added == 0 || p.Watermark < f.watermark {
		f.watermark = p.Watermark
	}
	f.added++
}

// fits reports whether pb may fold into f: well formed, and carrying the
// moments of its rows for every SUM/AVG aggregate of the fold.
func (f *PartialFold) fits(pb *PartialBin) bool {
	if !pb.wellFormed() {
		return false
	}
	for i, col := range f.t.m {
		if col != nil && (i >= len(pb.W) || pb.W[i].N != pb.N) {
			return false
		}
	}
	return true
}

// Watermark returns the minimum watermark over added fragments (0 before any
// Add).
func (f *PartialFold) Watermark() int64 { return f.watermark }

// Render materializes the merged state as a query.Result at the z critical
// value, sharing SnapshotScaled's estimator path bit-for-bit. The result's
// Watermark is the fold's min watermark; coordinators that translate shard
// watermarks onto a global axis overwrite it.
func (f *PartialFold) Render(z float64) *query.Result {
	res := render(&f.t, f.aggs, f.rowsSeen, f.population, f.watermark, 0, z)
	if !f.complete {
		res.Complete = false
	}
	return res
}
