package dataset

import "fmt"

// ReorderTable materializes t with its rows permuted: row i of the result is
// row perm[i] of t. The progressive engines use it at prepare time to store
// the fact table in their online-sampling order, turning "scan the next chunk
// of the permutation" — a random-order gather that cache-misses on every
// column read — into a sequential range scan over dense storage.
//
// perm must be a permutation of [0, t.NumRows()). Nominal columns share the
// parent dictionary so codes stay comparable between the original and the
// reordered copy, and quantitative columns (including positional FK columns,
// whose values are dimension row indices and therefore survive a fact-side
// reorder untouched) carry their memoized min/max bounds over — a permutation
// preserves the value multiset, so the reordered table skips the O(n)
// bounds pass NewTable would otherwise pay per column.
func ReorderTable(t *Table, perm []uint32) (*Table, error) {
	n := t.NumRows()
	if len(perm) != n {
		return nil, fmt.Errorf("dataset: reorder %q: permutation has %d entries for %d rows", t.Name, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("dataset: reorder %q: not a permutation of [0,%d)", t.Name, n)
		}
		seen[p] = true
	}
	return gather(t, perm, true)
}

// seedMinMax pre-fills the memoized bounds of a freshly built column whose
// value multiset is known (a reorder preserves it; an append extends it by
// the batch's own bounds). It overwrites any previous memo state.
func (c *Column) seedMinMax(lo, hi float64, ok bool) {
	c.mmMu.Lock()
	c.mmDone = true
	c.mmLo, c.mmHi, c.mmOK = lo, hi, ok
	c.mmMu.Unlock()
}

// ReorderFact returns a database whose fact table is reordered by perm while
// dimension tables are shared unchanged. Fact-side FK columns are permuted
// with the rest of the fact row, and their values — positional dimension row
// indices — still resolve against the unmoved dimension tables, so
// star-schema queries compile and join identically against the copy.
func (db *Database) ReorderFact(perm []uint32) (*Database, error) {
	fact, err := ReorderTable(db.Fact, perm)
	if err != nil {
		return nil, err
	}
	return &Database{Fact: fact, Dimensions: db.Dimensions}, nil
}
