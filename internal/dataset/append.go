package dataset

import (
	"fmt"
	"math"
	"sync"
)

// TableAppender owns the mutable storage lineage of one growing table: the
// single writer through which append-only batches land. Every Append
// produces a fresh immutable *Table view over the grown storage, so readers
// follow the usual snapshot discipline — a query keeps scanning the view it
// compiled against (slice headers pin the row count it saw) while new
// queries compile against the latest view. Growth is amortized: batches are
// appended in place into privately owned buffers, reallocating
// geometrically like any Go slice, never copying the whole table per batch.
//
// Ownership is the safety contract: exactly one appender may own a column's
// backing storage. Construct with NewTableAppender(t, true) only when t's
// storage is private to the caller (an engine's Prepare-time copy, a
// reordered materialization); NewTableAppender(t, false) copies the storage
// up front, which is what callers holding a table shared with other
// components must use — two lineages appending into shared backing arrays
// would race.
type TableAppender struct {
	mu     sync.Mutex
	name   string
	schema *Schema
	rows   int
	nums   [][]float64 // one per column; nil for nominal columns
	codes  [][]uint32  // one per column; nil for quantitative columns
	dicts  []*Dict

	// Running value bounds per quantitative column, folded batch-by-batch so
	// every appended view's memo is seeded in O(columns) instead of re-paying
	// the O(rows) pass NewTable would.
	mmLo, mmHi []float64
	mmOK       []bool

	// One bin-code registry per quantitative column and one block-order memo
	// per column, handed to every view: what is built through any view
	// serves all of them.
	bins   []*binCodeSet
	orders []*BlockOrder

	cur *Table
}

// NewTableAppender wraps t as the base of an append lineage. adopt declares
// that t's column storage is privately owned by the caller and may be grown
// in place; with adopt false the storage is copied first.
func NewTableAppender(t *Table, adopt bool) *TableAppender {
	n := t.NumRows()
	a := &TableAppender{
		name:   t.Name,
		schema: t.Schema,
		rows:   n,
		nums:   make([][]float64, len(t.Columns)),
		codes:  make([][]uint32, len(t.Columns)),
		dicts:  make([]*Dict, len(t.Columns)),
		mmLo:   make([]float64, len(t.Columns)),
		mmHi:   make([]float64, len(t.Columns)),
		mmOK:   make([]bool, len(t.Columns)),
		bins:   make([]*binCodeSet, len(t.Columns)),
		orders: make([]*BlockOrder, len(t.Columns)),
		cur:    t,
	}
	for i, c := range t.Columns {
		a.dicts[i] = c.Dict
		if adopt {
			// The storage changes hands, and with it whatever block orders
			// and bin codes t's plans already built over it.
			a.orders[i] = c.BlockOrder()
		} else {
			a.orders[i] = &BlockOrder{}
		}
		if c.Field.Kind == Nominal {
			if adopt {
				a.codes[i] = c.Codes
			} else {
				a.codes[i] = append(make([]uint32, 0, n+n/4+64), c.Codes...)
			}
		} else {
			if adopt {
				a.nums[i], a.bins[i] = c.Nums, c.binCodeSet()
			} else {
				a.nums[i] = append(make([]float64, 0, n+n/4+64), c.Nums...)
				a.bins[i] = &binCodeSet{}
			}
			a.mmLo[i], a.mmHi[i], a.mmOK[i] = c.MinMax()
		}
	}
	if !adopt {
		a.cur = a.viewLocked()
	}
	return a
}

// View returns the latest immutable table view.
func (a *TableAppender) View() *Table {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// NumRows returns the current lineage row count.
func (a *TableAppender) NumRows() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rows
}

// Append grows the lineage by batch's rows and returns the new view. The
// batch must have the same schema and share the lineage's dictionaries for
// nominal columns (so its codes are directly valid); it is what
// materializing an ingest batch against the current view produces.
func (a *TableAppender) Append(batch *Table) (*Table, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkBatchLocked(batch); err != nil {
		return nil, err
	}
	for i, c := range batch.Columns {
		if c.Field.Kind == Nominal {
			a.codes[i] = append(a.codes[i], c.Codes...)
			continue
		}
		a.nums[i] = append(a.nums[i], c.Nums...)
		lo, hi, ok := c.MinMax()
		switch {
		case !ok:
			// NaN (or empty) batch column: bounds of the union are unknown.
			a.mmOK[i] = batch.NumRows() == 0 && a.mmOK[i]
		case !a.mmOK[i] && a.rows == 0:
			a.mmLo[i], a.mmHi[i], a.mmOK[i] = lo, hi, true
		case a.mmOK[i]:
			a.mmLo[i] = math.Min(a.mmLo[i], lo)
			a.mmHi[i] = math.Max(a.mmHi[i], hi)
		}
	}
	a.rows += batch.NumRows()
	a.cur = a.viewLocked()
	return a.cur, nil
}

// checkBatchLocked validates schema identity and dictionary sharing.
func (a *TableAppender) checkBatchLocked(batch *Table) error {
	if batch.Schema.Len() != a.schema.Len() {
		return fmt.Errorf("dataset: append to %q: batch has %d fields, want %d",
			a.name, batch.Schema.Len(), a.schema.Len())
	}
	for i, f := range batch.Schema.Fields {
		if f != a.schema.Fields[i] {
			return fmt.Errorf("dataset: append to %q: field %d is %+v, want %+v",
				a.name, i, f, a.schema.Fields[i])
		}
		if f.Kind == Nominal && batch.Columns[i].Dict != a.dicts[i] {
			return fmt.Errorf("dataset: append to %q: column %q does not share the lineage dictionary",
				a.name, f.Name)
		}
	}
	return nil
}

// viewLocked builds an immutable Table over the current storage, seeding
// every quantitative column's bounds memo from the running fold and handing
// each column the lineage's bin-code registry and block-order memo.
func (a *TableAppender) viewLocked() *Table {
	cols := make([]*Column, a.schema.Len())
	for i, f := range a.schema.Fields {
		c := &Column{Field: f, Dict: a.dicts[i], order: a.orders[i]}
		if f.Kind == Nominal {
			c.Codes = a.codes[i][:len(a.codes[i]):len(a.codes[i])]
		} else {
			c.Nums = a.nums[i][:len(a.nums[i]):len(a.nums[i])]
			c.seedMinMax(a.mmLo[i], a.mmHi[i], a.mmOK[i])
			c.bins = a.bins[i]
		}
		cols[i] = c
	}
	t, err := NewTable(a.name, a.schema, cols)
	if err != nil {
		// Unreachable: the appender maintains equal column lengths by
		// construction; a panic here means its own invariant broke.
		panic(fmt.Sprintf("dataset: appender view: %v", err))
	}
	return t
}

// ValidateFKBatch checks that a fact-table batch's foreign-key values
// resolve positionally in db's dimension tables: integral and within
// [0, dimension rows). Append paths on normalized schemas call it before
// growing the fact table, so a malformed ingest batch cannot plant
// out-of-range joins that every later scan would chase.
func (db *Database) ValidateFKBatch(batch *Table) error {
	for _, d := range db.Dimensions {
		i := batch.Schema.FieldIndex(d.FKColumn)
		if i < 0 {
			return fmt.Errorf("dataset: batch lacks FK column %q", d.FKColumn)
		}
		col := batch.Columns[i]
		if col.Field.Kind != Quantitative {
			return fmt.Errorf("dataset: FK column %q is not quantitative", d.FKColumn)
		}
		limit := float64(d.Table.NumRows())
		for r, v := range col.Nums {
			if v != math.Trunc(v) || v < 0 || v >= limit {
				return fmt.Errorf("dataset: batch row %d: FK %q = %v outside dimension %q [0,%d)",
					r, d.FKColumn, v, d.Table.Name, d.Table.NumRows())
			}
		}
	}
	return nil
}
