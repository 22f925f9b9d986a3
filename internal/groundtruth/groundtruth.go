// Package groundtruth computes and caches exact query results against a
// database. The benchmark driver evaluates every delivered result against
// these references (paper Sec. 4.7); caching by query signature keeps the
// cost of repeated queries (common in workflows) at one scan each.
package groundtruth

import (
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// Cache memoizes exact results per query signature for one database. It is
// safe for concurrent use; concurrent misses for the same signature compute
// once.
type Cache struct {
	db *dataset.Database

	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	once sync.Once
	res  *query.Result
	err  error
}

// New returns an empty cache bound to db.
func New(db *dataset.Database) *Cache {
	return &Cache{db: db, entries: make(map[string]*entry)}
}

// Get returns the exact result for q, computing it on first use.
func (c *Cache) Get(q *query.Query) (*query.Result, error) {
	sig := q.Signature()
	c.mu.Lock()
	e, ok := c.entries[sig]
	if !ok {
		e = &entry{}
		c.entries[sig] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.res, e.err = Exact(c.db, q)
	})
	return e.res, e.err
}

// TruthAt implements the driver's truth source for a static database: there
// is one data version, so the watermark is ignored.
func (c *Cache) TruthAt(q *query.Query, _ int64) (*query.Result, error) {
	return c.Get(q)
}

// Size reports the number of cached signatures (for tests and reports).
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Exact runs the exact scan of q over db: the one reference every cache,
// versioned harness and engine test compares against.
func Exact(db *dataset.Database, q *query.Query) (*query.Result, error) {
	plan, err := engine.Compile(db, q)
	if err != nil {
		return nil, err
	}
	gs := engine.NewGroupState(plan)
	gs.ScanRange(0, plan.NumRows)
	return gs.SnapshotExact(), nil
}
