package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"idebench/internal/query"
	"idebench/internal/stats"
)

// Partial is the wire form of a GroupState: the raw per-bin accumulator
// moments of one execution fragment, before any estimator rendering. A shard
// ships Partials instead of rendered Results so the coordinator can merge
// fragments exactly as a local parallel scan merges its worker states —
// Welford parallel merge per aggregate, min/max folds, count sums — and then
// render once. Folding shards in a fixed order (sorted by shard ID) makes the
// merged accumulators, and therefore the rendered floats, bitwise-identical
// across runs regardless of which shard answered first.
//
// Bins are sorted by key so the encoding is canonical: two Partials of the
// same state marshal to the same bytes.
type Partial struct {
	// RowsSeen is the fragment's folded row count (the progressive scan
	// position); Population is the fragment's total row count at the version
	// it answers against.
	RowsSeen   int64 `json:"rows_seen"`
	Population int64 `json:"population"`
	// Watermark is the fragment's data version in absorbed fact rows — the
	// shard-local engine.Appender.Watermark axis. Coordinators translate it
	// to their global axis before applying the min-watermark rule.
	Watermark int64 `json:"watermark"`
	// Complete marks a fragment that has folded every row of its version.
	Complete bool         `json:"complete"`
	Bins     []PartialBin `json:"bins,omitempty"`
}

// PartialBin carries one bin's accumulator state.
type PartialBin struct {
	Key query.BinKey  `json:"key"`
	N   int64         `json:"n"`
	W   []WelfordWire `json:"w,omitempty"`
	// Mins/Maxs use F64 because untouched slots hold ±Inf, which
	// encoding/json rejects as bare floats.
	Mins []F64 `json:"mins,omitempty"`
	Maxs []F64 `json:"maxs,omitempty"`
}

// wellFormed reports whether the bin could have come from GroupState.Partial:
// at least one row, and no negative moment count.
func (pb *PartialBin) wellFormed() bool {
	for _, w := range pb.W {
		if w.N < 0 {
			return false
		}
	}
	return pb.N > 0
}

// WelfordWire is the serialized form of stats.Welford's raw moments.
type WelfordWire struct {
	N    int64 `json:"n"`
	Mean F64   `json:"mean"`
	M2   F64   `json:"m2"`
}

// F64 is a float64 that marshals as its IEEE-754 bit pattern (a decimal
// uint64). JSON's decimal float syntax cannot represent ±Inf or NaN and a
// shortest-round-trip formatter is not guaranteed bit-stable across
// implementations; partial snapshots must survive the wire bit-for-bit or
// the scatter-gather determinism guarantee dies in transport.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	return strconv.AppendUint(nil, math.Float64bits(float64(f)), 10), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	u, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("engine: F64 wants IEEE-754 bits as a decimal uint64: %w", err)
	}
	*f = F64(math.Float64frombits(u))
	return nil
}

// Partial extracts the state's accumulators in wire form. rowsSeen,
// populationRows and watermark carry the same semantics as SnapshotScaled;
// complete marks a fully folded fragment. Every bin carries one entry per
// aggregate in each of W/Mins/Maxs — the empty value where the aggregate
// does not use the field — carved out of one backing slice per field.
func (g *GroupState) Partial(rowsSeen, populationRows, watermark int64, complete bool) *Partial {
	t := &g.t
	bins, na := t.bins(), len(t.w)
	p := &Partial{
		RowsSeen:   rowsSeen,
		Population: populationRows,
		Watermark:  watermark,
		Complete:   complete,
		Bins:       make([]PartialBin, 0, bins),
	}
	ws := make([]WelfordWire, na*bins)
	fs := make([]F64, 2*na*bins)
	for s, n := range t.n {
		if n <= 0 {
			continue
		}
		pb := PartialBin{Key: t.key(s), N: n,
			W: ws[:na:na], Mins: fs[:na:na], Maxs: fs[na : 2*na : 2*na]}
		ws, fs = ws[na:], fs[2*na:]
		for i := range pb.W {
			pb.Mins[i], pb.Maxs[i] = F64(math.Inf(1)), F64(math.Inf(-1))
			if col := t.w[i]; col != nil {
				wn, mean, m2 := col[s].State()
				pb.W[i] = WelfordWire{N: wn, Mean: F64(mean), M2: F64(m2)}
			}
			if col := t.mins[i]; col != nil {
				pb.Mins[i] = F64(col[s])
			}
			if col := t.maxs[i]; col != nil {
				pb.Maxs[i] = F64(col[s])
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
// a bin without a positive row count or with a negative moment count is one
// no GroupState produces, and it is dropped rather than folded (a count that
// sums to zero or below would otherwise unmark a bin other fragments filled).
func (f *PartialFold) Add(p *Partial) {
	t := &f.t
	for _, pb := range p.Bins {
		if !pb.wellFormed() {
			continue
		}
		s := t.slot(pb.Key)
		t.n[s] += pb.N
		for i := range t.w {
			if col := t.w[i]; col != nil && i < len(pb.W) {
				col[s].Merge(stats.WelfordFromState(pb.W[i].N, float64(pb.W[i].Mean), float64(pb.W[i].M2)))
			}
			if col := t.mins[i]; col != nil && i < len(pb.Mins) && float64(pb.Mins[i]) < col[s] {
				col[s] = float64(pb.Mins[i])
			}
			if col := t.maxs[i]; col != nil && i < len(pb.Maxs) && float64(pb.Maxs[i]) > col[s] {
				col[s] = float64(pb.Maxs[i])
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

// Added reports how many fragments have been folded.
func (f *PartialFold) Added() int { return f.added }

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
