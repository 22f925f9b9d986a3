package query

import (
	"encoding/json"
	"fmt"
)

// UnmarshalJSON normalizes an explicit empty predicate list to the nil zero
// value. The field is tagged omitempty, so an empty non-nil slice would be
// dropped on re-encode and come back nil — making decode→encode→decode
// unstable (caught by FuzzParseQuery); with the normalization the decoded
// form is the canonical one from the start.
func (f *Filter) UnmarshalJSON(data []byte) error {
	type plain Filter
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if len(p.Predicates) == 0 {
		p.Predicates = nil
	}
	*f = Filter(p)
	return nil
}

// UnmarshalJSON normalizes an explicit empty value list to nil, for the
// same omitempty round-trip stability as Filter.UnmarshalJSON.
func (p *Predicate) UnmarshalJSON(data []byte) error {
	type plain Predicate
	var v plain
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Values) == 0 {
		v.Values = nil
	}
	*p = Predicate(v)
	return nil
}

// resultJSON is the JSON document of a Result: bin keys become explicit
// arrays because JSON objects cannot key on structs. It is the inspection
// form — what reports and the benchmark's document-pricing metrics marshal —
// not what the serving tier streams: snapshots travel in the binary form
// (binary.go).
type resultJSON struct {
	Bins      []binJSON `json:"bins"`
	RowsSeen  int64     `json:"rows_seen"`
	TotalRows int64     `json:"total_rows"`
	Complete  bool      `json:"complete"`
	Watermark int64     `json:"watermark,omitempty"`
	// Coverage is omitted when nil (a single-node result).
	Coverage *coverageJSON `json:"coverage,omitempty"`
}

type coverageJSON struct {
	PartitionsAnswered int     `json:"partitions_answered"`
	PartitionsTotal    int     `json:"partitions_total"`
	PopulationFraction float64 `json:"population_fraction"`
	Degraded           bool    `json:"degraded,omitempty"`
}

type binJSON struct {
	Key     [2]int64  `json:"key"`
	Values  []float64 `json:"values"`
	Margins []float64 `json:"margins"`
}

// MarshalJSON implements json.Marshaler with deterministic bin order.
func (r *Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Bins:      make([]binJSON, 0, len(r.Bins)),
		RowsSeen:  r.RowsSeen,
		TotalRows: r.TotalRows,
		Complete:  r.Complete,
		Watermark: r.Watermark,
	}
	if c := r.Coverage; c != nil {
		out.Coverage = &coverageJSON{
			PartitionsAnswered: c.PartitionsAnswered,
			PartitionsTotal:    c.PartitionsTotal,
			PopulationFraction: c.PopulationFraction,
			Degraded:           c.Degraded,
		}
	}
	for _, k := range r.SortedKeys() {
		bv := r.Bins[k]
		out.Bins = append(out.Bins, binJSON{
			Key:     [2]int64{k.A, k.B},
			Values:  bv.Values,
			Margins: bv.Margins,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("query: decode result: %w", err)
	}
	r.Bins = make(map[BinKey]*BinValue, len(in.Bins))
	r.RowsSeen = in.RowsSeen
	r.TotalRows = in.TotalRows
	r.Complete = in.Complete
	r.Watermark = in.Watermark
	r.Coverage = nil
	if c := in.Coverage; c != nil {
		r.Coverage = &Coverage{
			PartitionsAnswered: c.PartitionsAnswered,
			PartitionsTotal:    c.PartitionsTotal,
			PopulationFraction: c.PopulationFraction,
			Degraded:           c.Degraded,
		}
	}
	for _, b := range in.Bins {
		if len(b.Margins) != len(b.Values) {
			return fmt.Errorf("query: bin %v has %d margins for %d values",
				b.Key, len(b.Margins), len(b.Values))
		}
		r.Bins[BinKey{A: b.Key[0], B: b.Key[1]}] = &BinValue{
			Values:  b.Values,
			Margins: b.Margins,
		}
	}
	return nil
}
