// Package sqldb is the benchmark's generic SQL system adapter: it drives
// any database reachable through database/sql by rendering each
// visualization query to SQL text (paper Fig. 4), executing it with
// QueryContext on its own goroutine, and parsing the rows back into a
// result. Execution is blocking (a classical analytical SQL system);
// cancellation propagates through the context, so TR-cancelled queries stop
// consuming backend resources.
//
// The package ships with a constructor for the in-process sqlmem backend —
// the configuration the test suite and experiments use — but any *sql.DB
// works: implement Opener to point it at PostgreSQL, MonetDB, etc.
package sqldb

import (
	"context"
	"database/sql"
	"fmt"
	"sync"
	"sync/atomic"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/sqlmem"
)

// Opener connects the adapter to a concrete SQL backend: given the
// benchmark database (for schema/dictionary information and, for embedded
// backends, the data itself), it returns a live *sql.DB.
type Opener func(db *dataset.Database) (*sql.DB, error)

// counter disambiguates sqlmem DSNs across engine instances.
var counter atomic.Int64

// NewSQLMem returns an adapter backed by the in-process sqlmem driver.
func NewSQLMem() *Engine {
	return New(func(db *dataset.Database) (*sql.DB, error) {
		dsn := fmt.Sprintf("idebench-%d", counter.Add(1))
		return sqlmem.Register(dsn, db)
	})
}

// New returns an adapter using the given backend opener.
func New(open Opener) *Engine { return &Engine{open: open} }

// Engine is the database/sql-backed system adapter.
type Engine struct {
	engine.Stateless
	open Opener

	mu   sync.RWMutex
	db   *dataset.Database
	sqdb *sql.DB
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "sqldb" }

// Prepare implements engine.Engine: open the backend connection pool.
func (e *Engine) Prepare(db *dataset.Database, opts engine.Options) error {
	sqdb, err := e.open(db)
	if err != nil {
		return fmt.Errorf("sqldb: open backend: %w", err)
	}
	if err := sqdb.Ping(); err != nil {
		return fmt.Errorf("sqldb: ping backend: %w", err)
	}
	e.mu.Lock()
	e.db = db
	e.sqdb = sqdb
	e.mu.Unlock()
	return nil
}

// StartQuery implements engine.Session.
func (e *Engine) StartQuery(q *query.Query) (engine.Handle, error) {
	e.mu.RLock()
	db, sqdb := e.db, e.sqdb
	e.mu.RUnlock()
	if sqdb == nil {
		return nil, engine.ErrNotPrepared
	}
	// Validate eagerly so malformed queries fail at StartQuery like every
	// other engine, not asynchronously.
	if _, err := engine.Compile(db, q); err != nil {
		return nil, err
	}

	sqlText := q.ToSQL()
	h := engine.NewAsyncHandle()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer h.Finish()
		defer cancel()
		go func() { // propagate driver-side cancellation into the context
			<-h.Done()
			cancel()
		}()
		res, err := runSQL(ctx, sqdb, db, q, sqlText)
		if err != nil || h.Cancelled() {
			return // blocking model: nothing delivered on failure/cancel
		}
		h.Publish(res)
	}()
	return h, nil
}

// runSQL executes the text and converts rows back into a Result.
func runSQL(ctx context.Context, sqdb *sql.DB, db *dataset.Database, q *query.Query, sqlText string) (*query.Result, error) {
	rows, err := sqdb.QueryContext(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	defer rows.Close()

	res := query.NewResult()
	res.TotalRows = int64(db.Fact.NumRows())
	res.RowsSeen = res.TotalRows
	res.Complete = true

	nBins, nAggs := len(q.Bins), len(q.Aggs)
	scan := make([]any, nBins+nAggs)
	binStr := make([]sql.NullString, nBins)
	binNum := make([]sql.NullInt64, nBins)
	aggVal := make([]float64, nAggs)
	for i, b := range q.Bins {
		if b.Kind == dataset.Nominal {
			scan[i] = &binStr[i]
		} else {
			scan[i] = &binNum[i]
		}
	}
	for i := range aggVal {
		scan[nBins+i] = &aggVal[i]
	}

	for rows.Next() {
		if err := rows.Scan(scan...); err != nil {
			return nil, fmt.Errorf("sqldb: scan: %w", err)
		}
		key, err := binKeyOf(db, q, binStr, binNum)
		if err != nil {
			return nil, err
		}
		bv := &query.BinValue{
			Values:  append([]float64(nil), aggVal...),
			Margins: make([]float64, nAggs),
		}
		res.Bins[key] = bv
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// binKeyOf maps returned bin columns onto the benchmark's bin keys:
// quantitative dimensions return the FLOOR() index directly; nominal
// dimensions return the value string, resolved through the column's
// dictionary so keys are comparable with ground truth.
func binKeyOf(db *dataset.Database, q *query.Query, binStr []sql.NullString, binNum []sql.NullInt64) (query.BinKey, error) {
	var comps [2]int64
	for i, b := range q.Bins {
		if b.Kind == dataset.Nominal {
			col, _, _, err := db.ResolveColumn(b.Field)
			if err != nil {
				return query.BinKey{}, err
			}
			code, ok := col.Dict.Lookup(binStr[i].String)
			if !ok {
				return query.BinKey{}, fmt.Errorf("sqldb: backend returned unknown value %q for %s",
					binStr[i].String, b.Field)
			}
			comps[i] = int64(code)
		} else {
			comps[i] = binNum[i].Int64
		}
	}
	return query.BinKey{A: comps[0], B: comps[1]}, nil
}

// OpenSession implements engine.Engine. database/sql connection pools are
// already safe for concurrent use, and the adapter keeps no per-viz state,
// so the engine (and the pool) is its own session.
func (e *Engine) OpenSession() engine.Session { return e }

var _ engine.Engine = (*Engine)(nil)
