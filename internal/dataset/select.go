package dataset

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SelectRows materializes the given physical rows of t as a new table (the
// "sample tables created offline" of AQP systems). Nominal columns share the
// parent dictionary so codes remain comparable across the original and the
// sample.
func SelectRows(t *Table, rows []uint32) (*Table, error) {
	return gather(t, rows, false)
}

// gatherMinRows is the small-input rule of gather: below it a copy takes a
// fraction of a millisecond, so it runs on the calling goroutine and starts
// no other — sampledb's tail re-stratification and small partitions gather
// a few hundred rows at a time.
const gatherMinRows = 1 << 14

// gather builds a table whose row i is row rows[i] of t, nominal columns
// sharing the parent dictionaries. Each column's bounds memo is filled as
// it is copied: seeded from its source column when permuted (rows is a
// permutation, so the value multiset is unchanged), computed from the copy
// otherwise. Large gathers copy one column per worker at a time, up to
// GOMAXPROCS workers; every worker writes only the columns it claimed.
func gather(t *Table, rows []uint32, permuted bool) (*Table, error) {
	cols := make([]*Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = &Column{Field: c.Field, Dict: c.Dict}
	}
	copyColumn := func(i int) {
		src, dst := t.Columns[i], cols[i]
		if src.Field.Kind == Nominal {
			dst.Codes = make([]uint32, len(rows))
			for j, r := range rows {
				dst.Codes[j] = src.Codes[r]
			}
			return
		}
		dst.Nums = make([]float64, len(rows))
		for j, r := range rows {
			dst.Nums[j] = src.Nums[r]
		}
		if permuted {
			dst.seedMinMax(src.MinMax())
		} else {
			dst.MinMax()
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cols))
	if len(rows) < gatherMinRows || workers <= 1 {
		for i := range cols {
			copyColumn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cols) {
						return
					}
					copyColumn(i)
				}
			}()
		}
		wg.Wait()
	}
	return NewTable(t.Name, t.Schema, cols)
}
