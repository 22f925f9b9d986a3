// Package ingest is the live-ingestion subsystem: the columnar batch every
// append travels as (in memory, on the wire, in the write-ahead log), its
// materialization against a prepared database (dictionary interning, schema
// and foreign-key validation), a deterministic batch source distributed like
// the benchmark's synthetic data, and the Harness that replays mixed
// query+ingest timelines — owning the versioned ground-truth lineage and
// fanning each batch out to every engine that implements engine.Appender.
//
// The benchmark's static-table assumption is the one IDEBench shares with
// most of the systems it measures; this subsystem removes it. Batches are
// strictly append-only (no updates or deletes), which keeps every engine's
// incremental-maintenance story monotone: absorbing a batch can only add
// rows to bins, never retract them.
package ingest

import (
	"fmt"
	"math"
	"slices"

	"idebench/internal/dataset"
)

// Column is one schema field's values in a batch. A quantitative column is
// Nums, one finite value per row. A nominal column is Dict, the values its
// rows use in first-use order, plus Codes, one index into Dict per row; that
// form is canonical — every Dict value is used, no value appears twice, and
// code k first appears after codes 0..k-1 — so equal rows have one encoding.
type Column struct {
	Kind  dataset.Kind
	Nums  []float64
	Dict  []string
	Codes []uint32
}

// Len returns the column's row count.
func (c *Column) Len() int {
	if c.Kind == dataset.Nominal {
		return len(c.Codes)
	}
	return len(c.Nums)
}

// Batch is one append-only ingest event: rows appended atomically to one
// table, one Column per schema field in field order. Seq is the event's
// position in its stream (informational on the wire; the server broadcasts
// its post-apply watermark separately).
type Batch struct {
	Table   string
	Seq     int64
	Columns []Column
}

// NumRows returns the batch size.
func (b *Batch) NumRows() int {
	if len(b.Columns) == 0 {
		return 0
	}
	return b.Columns[0].Len()
}

// Validate checks structural well-formedness independent of any schema: a
// named table, at least one column and one row, columns of equal length,
// finite quantitative values (NaN and ±Inf have no place in a fact table),
// and nominal columns in canonical form.
func (b *Batch) Validate() error {
	if b.Table == "" {
		return fmt.Errorf("ingest: batch without table")
	}
	if len(b.Columns) == 0 {
		return fmt.Errorf("ingest: batch rows have no columns")
	}
	rows := b.NumRows()
	if rows == 0 {
		return fmt.Errorf("ingest: batch with no rows")
	}
	var scratch []string
	for j := range b.Columns {
		c := &b.Columns[j]
		if c.Len() != rows {
			return fmt.Errorf("ingest: batch column %d has %d rows, column 0 has %d", j, c.Len(), rows)
		}
		switch c.Kind {
		case dataset.Quantitative:
			if len(c.Dict) != 0 || len(c.Codes) != 0 {
				return fmt.Errorf("ingest: quantitative column %d carries a dictionary", j)
			}
			for i, v := range c.Nums {
				if !finite(v) {
					return fmt.Errorf("ingest: column %d row %d: %v is not a finite number", j, i, v)
				}
			}
		case dataset.Nominal:
			if len(c.Nums) != 0 {
				return fmt.Errorf("ingest: nominal column %d carries numbers", j)
			}
			if err := checkCodes(c.Codes, len(c.Dict)); err != nil {
				return fmt.Errorf("ingest: column %d: %w", j, err)
			}
			scratch = append(scratch[:0], c.Dict...)
			if err := checkDistinct(scratch); err != nil {
				return fmt.Errorf("ingest: column %d: %w", j, err)
			}
		default:
			return fmt.Errorf("ingest: column %d has unknown kind %d", j, c.Kind)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf: its exponent is not all
// ones.
func finite(v float64) bool {
	const exp = 0x7ff << 52
	return math.Float64bits(v)&exp != exp
}

// firstUse checks that a column's codes, fed in row order, index a
// dictionary of n values canonically: each code is one already used or the
// next unused one, and by the last row every value is used.
type firstUse struct{ next, n uint64 }

func (f *firstUse) add(row int, c uint64) error {
	switch {
	case c == f.next && f.next < f.n:
		f.next++
	case c >= f.next || c >= f.n:
		return fmt.Errorf("row %d: code %d is not the next unused one (%d) of a %d-value dictionary", row, c, f.next, f.n)
	}
	return nil
}

func (f *firstUse) done() error {
	if f.next != f.n {
		return fmt.Errorf("dictionary holds %d values, the rows use %d", f.n, f.next)
	}
	return nil
}

// checkCodes reports whether codes index a dictionary of n values in
// canonical order.
func checkCodes(codes []uint32, n int) error {
	f := firstUse{n: uint64(n)}
	for i, c := range codes {
		if err := f.add(i, uint64(c)); err != nil {
			return err
		}
	}
	return f.done()
}

// checkDistinct reports a value that appears twice in vs; it sorts vs, so
// callers pass a copy.
func checkDistinct(vs []string) error {
	slices.Sort(vs)
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			return fmt.Errorf("dictionary holds %q twice", vs[i])
		}
	}
	return nil
}

// Materialize converts a batch into an appendable table against db. The
// columns are validated against the fact schema (count and kind per field).
// Each nominal column's Dict is interned into the fact table's dictionary
// once per value, in Dict order: that is the rows' first-use order, so the
// fact dictionary grows exactly as a row-by-row interning would grow it, and
// because the dictionaries are shared with every engine copy the resulting
// codes are valid everywhere. On a normalized schema the foreign keys are
// checked against the dimension tables. The returned table owns its
// storage; it is exactly what engine.Appender.Append and
// dataset.TableAppender.Append consume.
func Materialize(db *dataset.Database, b *Batch) (*dataset.Table, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	fact := db.Fact
	if b.Table != fact.Name {
		return nil, fmt.Errorf("ingest: batch targets table %q, prepared fact table is %q", b.Table, fact.Name)
	}
	schema := fact.Schema
	if len(b.Columns) != schema.Len() {
		return nil, fmt.Errorf("ingest: batch has %d columns for %d fields", len(b.Columns), schema.Len())
	}
	cols := make([]*dataset.Column, len(b.Columns))
	for j, f := range schema.Fields {
		c := &b.Columns[j]
		if c.Kind != f.Kind {
			return nil, fmt.Errorf("ingest: field %q is %s, batch column is %s", f.Name, f.Kind, c.Kind)
		}
		col := &dataset.Column{Field: f}
		if f.Kind == dataset.Quantitative {
			col.Nums = slices.Clone(c.Nums)
		} else {
			dict := fact.Columns[j].Dict
			to := make([]uint32, len(c.Dict))
			for k, v := range c.Dict {
				to[k] = dict.Code(v)
			}
			col.Dict = dict
			col.Codes = make([]uint32, len(c.Codes))
			for i, k := range c.Codes {
				col.Codes[i] = to[k]
			}
		}
		cols[j] = col
	}
	tbl, err := dataset.NewTable(fact.Name, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("ingest: materialize: %w", err)
	}
	if err := db.ValidateFKBatch(tbl); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return tbl, nil
}

// FromTable converts rows [lo, hi) of t into a batch (the inverse of
// Materialize, used by the deterministic source, the coordinator's Append
// and as fuzz seeds). The quantitative columns share one slab, the nominal
// codes another.
func FromTable(t *dataset.Table, lo, hi int) *Batch {
	lo = max(lo, 0)
	hi = min(hi, t.NumRows())
	rows := max(hi-lo, 0)
	nq := 0
	for _, c := range t.Columns {
		if c.Field.Kind == dataset.Quantitative {
			nq++
		}
	}
	nums := make([]float64, nq*rows)
	codes := make([]uint32, (len(t.Columns)-nq)*rows)
	b := &Batch{Table: t.Name, Columns: make([]Column, len(t.Columns))}
	local := make(map[uint32]uint32)
	for j, c := range t.Columns {
		out := &b.Columns[j]
		out.Kind = c.Field.Kind
		if c.Field.Kind == dataset.Quantitative {
			out.Nums, nums = nums[:rows:rows], nums[rows:]
			copy(out.Nums, c.Nums[lo:hi])
			continue
		}
		out.Codes, codes = codes[:rows:rows], codes[rows:]
		clear(local)
		for i, code := range c.Codes[lo:hi] {
			k, ok := local[code]
			if !ok {
				k = uint32(len(out.Dict))
				local[code] = k
				out.Dict = append(out.Dict, c.Dict.Value(code))
			}
			out.Codes[i] = k
		}
	}
	return b
}
