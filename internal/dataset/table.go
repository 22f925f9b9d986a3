package dataset

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Column is one attribute's storage. Exactly one of Nums/Codes is non-nil,
// depending on the field kind. Nominal values are dictionary-encoded: Codes
// holds indices into Dict.
//
// Once a column is part of a built table its Nums are immutable except by
// append (AppendNum, or a TableAppender growing the lineage): the derived
// storage below — the bounds memo and the bin-code columns compiled plans
// read instead of Nums — is computed from the values once and never
// re-checked, so a value overwritten in place would leave both silently
// stale.
type Column struct {
	Field Field
	Nums  []float64 // quantitative storage
	Codes []uint32  // nominal storage (dictionary codes)
	Dict  *Dict     // nominal dictionary, shared between derived tables

	// Lazily-memoized value bounds. Tables are effectively immutable once
	// built, so the first caller pays one tight O(n) pass and every later
	// query plan gets the bounds for free (the engine's dense group-by fast
	// path sizes its accumulator array from them). Mutation — a Builder
	// append, or the append-only growth path — invalidates the memo, so a
	// stale bound can never leak into a plan compiled after an append.
	mmMu       sync.Mutex
	mmDone     bool
	mmLo, mmHi float64
	mmOK       bool

	// Derived bin-code columns (bincodes.go), guarded by mmMu like the bounds:
	// nil until first asked for, shared by every view of an append lineage,
	// dropped with the bounds memo by an in-place mutation.
	bins *binCodeSet

	// Block orders (blockorder.go), of either kind of column: guarded, shared
	// and dropped like the bin codes.
	order *BlockOrder
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	if c.Field.Kind == Nominal {
		return len(c.Codes)
	}
	return len(c.Nums)
}

// MinMax returns the value bounds of a quantitative column, memoized on
// first use. ok is false for nominal or empty columns and for columns
// containing NaN (whose values no finite interval bounds).
func (c *Column) MinMax() (lo, hi float64, ok bool) {
	c.mmMu.Lock()
	defer c.mmMu.Unlock()
	if !c.mmDone {
		c.mmDone = true
		c.mmLo, c.mmHi, c.mmOK = 0, 0, false
		if c.Field.Kind == Quantitative && len(c.Nums) > 0 {
			lo, hi, ok := c.Nums[0], c.Nums[0], true
			for _, v := range c.Nums {
				if math.IsNaN(v) {
					ok = false
					break
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if ok {
				c.mmLo, c.mmHi, c.mmOK = lo, hi, true
			}
		}
	}
	return c.mmLo, c.mmHi, c.mmOK
}

// InvalidateMinMax drops the memoized bounds and, with them, the derived
// bin-code columns and block orders; every in-place mutation of
// quantitative storage must either call it (Column.AppendNum does per value,
// Builder.Build once per build) or re-seed the memo with bounds covering the
// new contents (the table-growth lineage does, via seedMinMax, and extends
// its bin codes by the appended rows). Without the guard a memoized bound computed
// before an append would silently under-size the engine's dense group-by
// accumulators for rows appended outside the old value range.
func (c *Column) InvalidateMinMax() {
	c.mmMu.Lock()
	c.mmDone = false
	c.bins, c.order = nil, nil
	c.mmMu.Unlock()
}

// AppendNum appends a quantitative value, invalidating the bounds memo.
// It is the canonical mutator for growing a built column in place; bulk
// paths (the Builder, which invalidates once at Build, and TableAppender,
// which re-seeds the memo per batch) may bypass it, but must then maintain
// the memo themselves exactly as those two do.
func (c *Column) AppendNum(v float64) {
	c.Nums = append(c.Nums, v)
	c.InvalidateMinMax()
}

// AppendCode appends a dictionary code, which must be valid for c.Dict.
// Nominal columns have no bounds memo, so no invalidation is needed.
func (c *Column) AppendCode(code uint32) {
	c.Codes = append(c.Codes, code)
}

// ValueString renders row i for reports and CSV export.
func (c *Column) ValueString(i int) string {
	if c.Field.Kind == Nominal {
		return c.Dict.Value(c.Codes[i])
	}
	return formatFloat(c.Nums[i])
}

// Dict is an append-only string dictionary for a nominal column. It is safe
// for concurrent use: live ingestion interns new values into dictionaries
// that are shared with engine copies whose scans, plan compilations and
// report renderings run concurrently.
type Dict struct {
	mu     sync.RWMutex
	values []string
	index  map[string]uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]uint32)}
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) uint32 {
	d.mu.RLock()
	c, ok := d.index[s]
	d.mu.RUnlock()
	if ok {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.index[s]; ok {
		return c
	}
	c = uint32(len(d.values))
	d.values = append(d.values, s)
	d.index[s] = c
	return c
}

// Lookup returns the code for s without interning.
func (d *Dict) Lookup(s string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.index[s]
	return c, ok
}

// Value returns the string for a code; out-of-range codes yield a marker
// rather than panicking, because report rendering must never take the
// benchmark down.
func (d *Dict) Value(c uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(c) >= len(d.values) {
		return fmt.Sprintf("<code:%d>", c)
	}
	return d.values[c]
}

// Len returns the dictionary cardinality.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.values)
}

// Values returns a copy of the dictionary contents in code order. (A shared
// slice would race with concurrent interning under live ingestion.) Code
// order is the canonical, deterministic enumeration and serialization order:
// codes are assigned sequentially at interning time, never reused and never
// reordered, so two dictionaries built by the same interning sequence
// enumerate identically. The checkpoint codec (codec.go) serializes
// dictionaries in this order, which is what makes two checkpoints of the
// same logical database byte-identical.
func (d *Dict) Values() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.values...)
}

// Table is an immutable columnar table view. All engines share Table
// values; nothing mutates a table after construction, so concurrent scans
// need no locking. Append-only growth goes through TableAppender
// (append.go), which produces a fresh Table view per batch while in-flight
// scans keep reading the view they compiled against.
type Table struct {
	Name    string
	Schema  *Schema
	Columns []*Column
	rows    int
}

// NewTable assembles a table from columns that must match the schema order
// and agree on length.
func NewTable(name string, schema *Schema, columns []*Column) (*Table, error) {
	if len(columns) != schema.Len() {
		return nil, fmt.Errorf("dataset: table %q: %d columns for %d fields", name, len(columns), schema.Len())
	}
	rows := -1
	for i, c := range columns {
		if c.Field != schema.Fields[i] {
			return nil, fmt.Errorf("dataset: table %q: column %d field mismatch", name, i)
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("dataset: table %q: ragged columns (%d vs %d rows)", name, rows, c.Len())
		}
		if c.Field.Kind == Nominal && c.Dict == nil {
			return nil, fmt.Errorf("dataset: table %q: nominal column %q without dictionary", name, c.Field.Name)
		}
	}
	if rows == -1 {
		rows = 0
	}
	// Warm the memoized column bounds now so the cost lands in table build
	// (data preparation time) rather than in the first query that compiles
	// a plan against the column — the benchmark keeps pre-processing and
	// query time strictly separate.
	for _, c := range columns {
		if c.Field.Kind == Quantitative {
			c.MinMax()
		}
	}
	return &Table{Name: name, Schema: schema, Columns: columns, rows: rows}, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Bytes returns the size of the table's stored columns: 8 B a row for a
// quantitative column, 4 for a nominal one's codes. Dictionaries and
// derived memos are not counted.
func (t *Table) Bytes() int64 {
	var n int64
	for _, c := range t.Columns {
		n += int64(8*len(c.Nums) + 4*len(c.Codes))
	}
	return n
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.Schema.FieldIndex(name)
	if i < 0 {
		return nil
	}
	return t.Columns[i]
}

// Builder accumulates rows for a new table. It is not safe for concurrent
// use; generators build per-goroutine shards and merge them instead.
type Builder struct {
	name    string
	schema  *Schema
	columns []*Column
}

// NewBuilder prepares a builder with empty columns (capacity hint optional).
func NewBuilder(name string, schema *Schema, capacity int) *Builder {
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		c := &Column{Field: f}
		if f.Kind == Nominal {
			c.Codes = make([]uint32, 0, capacity)
			c.Dict = NewDict()
		} else {
			c.Nums = make([]float64, 0, capacity)
		}
		cols[i] = c
	}
	return &Builder{name: name, schema: schema, columns: cols}
}

// AppendNum appends a quantitative value to column i. The bounds memo is
// not invalidated per value — a memo is pointless mid-build and Build
// invalidates every column once — keeping the bulk-construction hot path
// free of per-cell locking.
func (b *Builder) AppendNum(i int, v float64) {
	b.columns[i].Nums = append(b.columns[i].Nums, v)
}

// AppendString appends (and interns) a nominal value to column i.
func (b *Builder) AppendString(i int, s string) {
	c := b.columns[i]
	c.Codes = append(c.Codes, c.Dict.Code(s))
}

// AppendCode appends a pre-interned code to nominal column i. The caller is
// responsible for the code being valid for the column's dictionary.
func (b *Builder) AppendCode(i int, code uint32) {
	c := b.columns[i]
	c.Codes = append(c.Codes, code)
}

// SetDict replaces the dictionary of nominal column i; used when a derived
// table shares its parent's dictionary so codes stay comparable.
func (b *Builder) SetDict(i int, d *Dict) { b.columns[i].Dict = d }

// Dict returns the dictionary of nominal column i.
func (b *Builder) Dict(i int) *Dict { return b.columns[i].Dict }

// Build finalizes the table. Bounds memos are invalidated first — the
// builder appends raw storage for speed, so a MinMax call interleaved with
// appends (the footgun the memo guard exists for) must not survive into
// the built table's warmed bounds.
func (b *Builder) Build() (*Table, error) {
	for _, c := range b.columns {
		c.InvalidateMinMax()
	}
	return NewTable(b.name, b.schema, b.columns)
}

// Database is a (possibly star-shaped) set of tables: one fact table plus
// zero or more dimension tables joined via foreign-key columns in the fact
// table. A de-normalized database has Dimensions == nil.
type Database struct {
	Fact       *Table
	Dimensions []*Dimension
}

// Dimension describes one dimension table and the fact-side foreign key.
// Rows in the dimension table are addressed positionally: the FK column in
// the fact table stores the dimension row index, the common physical layout
// after dictionary encoding (and what makes positional joins possible).
type Dimension struct {
	Table *Table
	// FKColumn is the fact-table column holding dimension row indices.
	FKColumn string
}

// NumRows returns the fact-table row count.
func (db *Database) NumRows() int { return db.Fact.NumRows() }

// IsNormalized reports whether the database uses a star schema.
func (db *Database) IsNormalized() bool { return len(db.Dimensions) > 0 }

// ResolveColumn finds the named attribute either in the fact table or in a
// dimension table. For dimension attributes it returns the dimension and the
// fact-side FK column used to reach it.
func (db *Database) ResolveColumn(name string) (col *Column, dim *Dimension, fk *Column, err error) {
	if c := db.Fact.Column(name); c != nil {
		return c, nil, nil, nil
	}
	for _, d := range db.Dimensions {
		if c := d.Table.Column(name); c != nil {
			fkc := db.Fact.Column(d.FKColumn)
			if fkc == nil {
				return nil, nil, nil, fmt.Errorf("dataset: dimension %q: fact table lacks FK column %q", d.Table.Name, d.FKColumn)
			}
			return c, d, fkc, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("dataset: unknown column %q", name)
}

// TotalBytes estimates the resident size of all tables, used by the data
// preparation report.
func (db *Database) TotalBytes() int64 {
	total := tableBytes(db.Fact)
	for _, d := range db.Dimensions {
		total += tableBytes(d.Table)
	}
	return total
}

func tableBytes(t *Table) int64 {
	var b int64
	for _, c := range t.Columns {
		b += int64(len(c.Nums))*8 + int64(len(c.Codes))*4
	}
	return b
}

// ErrNoRows is returned by operations that require a non-empty table.
var ErrNoRows = errors.New("dataset: table has no rows")
