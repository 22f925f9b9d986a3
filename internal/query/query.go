// Package query defines the benchmark's query model: visualization
// specifications with binned grouping (1D/2D, nominal/quantitative),
// aggregate functions, incremental filters, and their rendering to SQL
// (paper Sec. 4.4, Fig. 4). Engines consume query.Query values; the driver
// compares their query.Result values against ground truth.
package query

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"idebench/internal/dataset"
)

// AggFunc enumerates the aggregate functions the benchmark issues.
type AggFunc string

// Aggregate functions supported by the workload generator (paper Sec. 2.2:
// "aggregate functions to each group such as AVG, or SUM").
const (
	Count AggFunc = "count"
	Sum   AggFunc = "sum"
	Avg   AggFunc = "avg"
	Min   AggFunc = "min"
	Max   AggFunc = "max"
)

// Valid reports whether f is a known aggregate function.
func (f AggFunc) Valid() bool {
	switch f {
	case Count, Sum, Avg, Min, Max:
		return true
	}
	return false
}

// Aggregate is one aggregate expression. Field is empty for COUNT(*).
type Aggregate struct {
	Func  AggFunc `json:"func"`
	Field string  `json:"field,omitempty"`
}

// String renders the aggregate as SQL.
func (a Aggregate) String() string {
	if a.Func == Count && a.Field == "" {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", strings.ToUpper(string(a.Func)), a.Field)
}

// Binning describes one grouping dimension of a visualization. Nominal
// fields bin by identity; quantitative fields bin by fixed width relative to
// an origin (paper Sec. 2.2, method 2: "choosing an interval based on a
// fixed bin width and a reference value").
type Binning struct {
	Field  string       `json:"field"`
	Kind   dataset.Kind `json:"kind"`
	Width  float64      `json:"width,omitempty"`  // quantitative only, > 0
	Origin float64      `json:"origin,omitempty"` // quantitative only
}

// BinIndex maps a raw value to its bin index.
func (b Binning) BinIndex(v float64) int64 {
	return int64(math.Floor((v - b.Origin) / b.Width))
}

// BinLow returns the inclusive lower bound of bin idx.
func (b Binning) BinLow(idx int64) float64 { return b.Origin + float64(idx)*b.Width }

// Validate checks internal consistency.
func (b Binning) Validate() error {
	if b.Field == "" {
		return errors.New("query: binning without field")
	}
	if b.Kind == dataset.Quantitative && !(b.Width > 0) {
		return fmt.Errorf("query: quantitative binning on %q needs width > 0", b.Field)
	}
	return nil
}

// Op enumerates filter predicate operators.
type Op string

// Predicate operators. In covers nominal selections (one or more category
// values); Range covers quantitative selections [Lo, Hi).
const (
	OpIn    Op = "in"
	OpRange Op = "range"
)

// Predicate is one conjunct of a filter.
type Predicate struct {
	Field  string   `json:"field"`
	Op     Op       `json:"op"`
	Values []string `json:"values,omitempty"` // OpIn
	Lo     float64  `json:"lo,omitempty"`     // OpRange, inclusive
	Hi     float64  `json:"hi,omitempty"`     // OpRange, exclusive
}

// Validate checks internal consistency.
func (p Predicate) Validate() error {
	if p.Field == "" {
		return errors.New("query: predicate without field")
	}
	switch p.Op {
	case OpIn:
		if len(p.Values) == 0 {
			return fmt.Errorf("query: IN predicate on %q without values", p.Field)
		}
	case OpRange:
		if !(p.Lo < p.Hi) {
			return fmt.Errorf("query: range predicate on %q with lo >= hi", p.Field)
		}
	default:
		return fmt.Errorf("query: unknown predicate op %q", p.Op)
	}
	return nil
}

// Filter is a conjunction of predicates. The zero value matches all rows.
type Filter struct {
	Predicates []Predicate `json:"predicates,omitempty"`
}

// IsEmpty reports whether the filter matches everything.
func (f Filter) IsEmpty() bool { return len(f.Predicates) == 0 }

// And returns a new filter with p appended; the receiver is not modified
// (filters are built incrementally as users drill down).
func (f Filter) And(p Predicate) Filter {
	out := Filter{Predicates: make([]Predicate, 0, len(f.Predicates)+1)}
	out.Predicates = append(out.Predicates, f.Predicates...)
	out.Predicates = append(out.Predicates, p)
	return out
}

// Query is one executable aggregation query derived from a visualization
// specification.
type Query struct {
	// VizName identifies the visualization this query updates.
	VizName string `json:"viz_name"`
	// Table names the (fact) table.
	Table string `json:"table"`
	// Bins has one or two grouping dimensions.
	Bins []Binning `json:"bins"`
	// Aggs has at least one aggregate.
	Aggs []Aggregate `json:"aggs"`
	// Filter restricts the input rows.
	Filter Filter `json:"filter"`
}

// Validate checks the query is well formed.
func (q *Query) Validate() error {
	if q.Table == "" {
		return errors.New("query: missing table")
	}
	if len(q.Bins) < 1 || len(q.Bins) > 2 {
		return fmt.Errorf("query: %d binning dimensions, want 1 or 2", len(q.Bins))
	}
	for _, b := range q.Bins {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	if len(q.Aggs) == 0 {
		return errors.New("query: no aggregates")
	}
	for _, a := range q.Aggs {
		if !a.Func.Valid() {
			return fmt.Errorf("query: unknown aggregate %q", a.Func)
		}
		if a.Func != Count && a.Field == "" {
			return fmt.Errorf("query: %s aggregate needs a field", a.Func)
		}
	}
	for _, p := range q.Filter.Predicates {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Signature returns a canonical string identifying the query's semantics,
// used as ground-truth cache key and for result reuse. Two queries with the
// same signature must return the same ground truth, and two queries with
// different semantics must not share one: every string in it is
// length-prefixed and every list counted, so no field name or IN value can
// forge a separator. It is insensitive to the order of IN values and of
// predicates.
func (q *Query) Signature() string {
	sig, _ := q.SignatureKeys()
	return sig
}

// SignatureKeys returns Signature together with the canonical key of each
// filter predicate, in filter order: the predicate's field, operator and
// operands, length-prefixed, with IN values sorted. Equal keys select the
// same rows of a table; the signature embeds the keys sorted, so callers
// that need both (a session matching recorded filter selections) sign the
// predicates once.
func (q *Query) SignatureKeys() (sig string, keys []string) {
	var sb strings.Builder
	sigStr(&sb, q.Table)
	sb.WriteByte('|')
	sigInt(&sb, len(q.Bins))
	for _, b := range q.Bins {
		sb.WriteString("|b:")
		sigStr(&sb, b.Field)
		sb.WriteByte(':')
		sigInt(&sb, int(b.Kind))
		sb.WriteByte(':')
		sigFloat(&sb, b.Width)
		sb.WriteByte(':')
		sigFloat(&sb, b.Origin)
	}
	sb.WriteByte('|')
	sigInt(&sb, len(q.Aggs))
	for _, a := range q.Aggs {
		sb.WriteString("|a:")
		sigStr(&sb, string(a.Func))
		sb.WriteByte(':')
		sigStr(&sb, a.Field)
	}
	// Each predicate signs on its own so the set can be sorted; the sorted
	// keys are then written length-prefixed like any other string.
	keys = predicateKeys(q.Filter.Predicates)
	var buf [8]string
	sorted := append(buf[:0], keys...)
	slices.Sort(sorted)
	sb.WriteByte('|')
	sigInt(&sb, len(sorted))
	for _, p := range sorted {
		sb.WriteString("|p:")
		sigStr(&sb, p)
	}
	return sb.String(), keys
}

// predicateKeys signs each predicate into one shared builder and returns the
// keys as views of its string, in predicate order (nil for no predicates).
func predicateKeys(preds []Predicate) []string {
	if len(preds) == 0 {
		return nil
	}
	var pb strings.Builder
	keys := make([]string, len(preds))
	for i, p := range preds {
		head := pb.Len()
		sigStr(&pb, p.Field)
		if p.Op == OpIn {
			vals := append([]string(nil), p.Values...)
			slices.Sort(vals)
			pb.WriteString(":in:")
			sigInt(&pb, len(vals))
			for _, v := range vals {
				pb.WriteByte(':')
				sigStr(&pb, v)
			}
		} else {
			pb.WriteString(":range:")
			sigFloat(&pb, p.Lo)
			pb.WriteByte(':')
			sigFloat(&pb, p.Hi)
		}
		keys[i] = pb.String()[head:]
	}
	return keys
}

func sigInt(sb *strings.Builder, n int) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

func sigFloat(sb *strings.Builder, f float64) {
	var buf [32]byte
	sb.Write(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
}

// sigStr writes s length-prefixed, so its content cannot be read as a
// separator.
func sigStr(sb *strings.Builder, s string) {
	sigInt(sb, len(s))
	sb.WriteByte(':')
	sb.WriteString(s)
}

// BinDims returns the number of binning dimensions (paper report column
// "bin dims").
func (q *Query) BinDims() int { return len(q.Bins) }

// BinningType renders the report's "binning type" column, e.g.
// "quantitative quantitative" for a 2D binned scatter plot.
func (q *Query) BinningType() string {
	parts := make([]string, len(q.Bins))
	for i, b := range q.Bins {
		parts[i] = b.Kind.String()
	}
	return strings.Join(parts, " ")
}

// AggType renders the report's "agg type" column.
func (q *Query) AggType() string {
	parts := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		parts[i] = string(a.Func)
	}
	return strings.Join(parts, " ")
}

// SelectionPredicate converts a user selection of bin index idx on binning b
// into the filter predicate that linked visualizations receive (brushing:
// selecting a bar constrains the underlying attribute).
func SelectionPredicate(b Binning, idx int64, dict *dataset.Dict) Predicate {
	if b.Kind == dataset.Nominal {
		return Predicate{Field: b.Field, Op: OpIn, Values: []string{dict.Value(uint32(idx))}}
	}
	lo := b.BinLow(idx)
	return Predicate{Field: b.Field, Op: OpRange, Lo: lo, Hi: lo + b.Width}
}
