// Package dataset implements the columnar storage substrate shared by all
// IDEBench-Go engines: dictionary-encoded nominal columns, float64
// quantitative columns, immutable tables, star-schema databases
// (fact + dimension tables) and CSV import/export.
//
// All engines in internal/engine operate on the same dataset.Table; their
// differences — blocking vs. progressive vs. sampled execution — are
// execution-model differences, which is exactly the axis the paper measures.
//
// # Derived storage
//
// A quantitative column carries two memos computed from its values, both
// lazily, both absent from EncodeTable's bytes and so from every checkpoint:
// its value bounds (Column.MinMax) and, per distinct binning a compiled plan
// has asked for, a bin-code column (Column.BinCodes, bincodes.go) — one
// uint8 per row holding the row's bin index less a fixed base, at most four
// per column, 1 B/row each, built by the first caller in one pass. Who owns
// them: the bounds belong to the Column value (builders of derived tables —
// ReorderTable, DecodeTable, TableAppender — seed them from what they know
// instead of re-scanning); the bin codes belong to the column's append
// lineage — a TableAppender hands one registry to every view it mints, a
// view extends the codes by the rows it has and the registry lacks, and
// tables made any other way (NewTableAppender(t, false), ReorderTable,
// SelectRows, shard.Partition, DecodeTable) start with none. What
// invalidates them: nothing, for a built table — its Nums are immutable
// except by append, and an append only widens bounds and extends codes. An
// in-place mutation (Column.AppendNum, a Builder between builds) drops both
// through InvalidateMinMax; a lineage whose values move outside the byte a
// binning was built for stops using that binning's codes for good and bins
// from the values again.
//
// # The block grid
//
// A lineage's rows are cut into aligned blocks of BlockRows (4096) rows,
// the one grid every per-block memo uses: the block orders here
// (blockorder.go, a lineage memo like the bin codes), the engine's block
// tables and recorded selections, and the shared scan's claims. Block
// orders and block tables keep their per-block pointers in a BlockDir
// (blockdir.go): a grow-only directory whose reads take no lock and whose
// growth carries the existing slots over.
package dataset

import (
	"errors"
	"fmt"
)

// Kind discriminates the two attribute types the benchmark distinguishes
// (paper Sec. 4.2/4.7: "nominal" vs "quantitative" bin ranges).
type Kind uint8

const (
	// Quantitative attributes hold numeric values binned by width.
	Quantitative Kind = iota
	// Nominal attributes hold categorical values binned by identity.
	Nominal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Quantitative:
		return "quantitative"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Field describes one attribute of a table.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
	index  map[string]int
}

// NewSchema builds a schema and its name index. Duplicate field names are
// rejected.
func NewSchema(fields []Field) (*Schema, error) {
	s := &Schema{Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, errors.New("dataset: empty field name")
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate field %q", f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema for statically known field lists; it panics on
// invalid input.
func MustSchema(fields []Field) *Schema {
	s, err := NewSchema(fields)
	if err != nil {
		panic(err)
	}
	return s
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Field returns the named field.
func (s *Schema) Field(name string) (Field, bool) {
	i := s.FieldIndex(name)
	if i < 0 {
		return Field{}, false
	}
	return s.Fields[i], true
}

// Names returns the field names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }
