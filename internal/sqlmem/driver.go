package sqlmem

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/engine"
)

// Driver implements database/sql/driver.Driver over registered in-memory
// databases. Data source names are registry keys passed to Register.
type Driver struct{}

// registry maps DSNs to databases. database/sql drivers are process-global,
// so the registry is too.
var (
	registryMu sync.RWMutex
	registry   = map[string]*dataset.Database{}
	registered sync.Once
)

// Register binds a database to a data source name and makes sure the
// "sqlmem" driver is registered with database/sql. It returns a *sql.DB
// handle for the DSN.
func Register(dsn string, db *dataset.Database) (*sql.DB, error) {
	if db == nil || db.Fact == nil {
		return nil, fmt.Errorf("sqlmem: nil database")
	}
	registered.Do(func() { sql.Register("sqlmem", Driver{}) })
	registryMu.Lock()
	registry[dsn] = db
	registryMu.Unlock()
	return sql.Open("sqlmem", dsn)
}

// Unregister removes a DSN from the registry (open handles fail afterwards).
func Unregister(dsn string) {
	registryMu.Lock()
	delete(registry, dsn)
	registryMu.Unlock()
}

// Open implements driver.Driver.
func (Driver) Open(dsn string) (driver.Conn, error) {
	registryMu.RLock()
	db, ok := registry[dsn]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sqlmem: unknown data source %q", dsn)
	}
	return &conn{db: db}, nil
}

// conn implements driver.Conn and driver.QueryerContext. The benchmark path
// uses QueryContext exclusively; Prepare exists for database/sql
// compatibility.
type conn struct {
	db *dataset.Database
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(q string) (driver.Stmt, error) {
	return &stmt{conn: c, sql: q}, nil
}

// Close implements driver.Conn.
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn; the store is read-only.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqlmem: transactions are not supported")
}

// QueryContext implements driver.QueryerContext: parse, execute with
// cancellation checks between chunks, return rows.
func (c *conn) QueryContext(ctx context.Context, sqlText string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("sqlmem: placeholder arguments are not supported")
	}
	return execute(ctx, c.db, sqlText)
}

var (
	_ driver.QueryerContext = (*conn)(nil)
)

// stmt implements driver.Stmt for the Prepare path.
type stmt struct {
	conn *conn
	sql  string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("sqlmem: write statements are not supported")
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("sqlmem: placeholder arguments are not supported")
	}
	return execute(context.Background(), s.conn.db, s.sql)
}

// chunkRows bounds work between context cancellation checks.
const chunkRows = 1 << 14

// execute parses and runs one query, materializing the result rows.
func execute(ctx context.Context, db *dataset.Database, sqlText string) (driver.Rows, error) {
	q, err := Parse(sqlText, db)
	if err != nil {
		return nil, err
	}
	plan, err := engine.Compile(db, q)
	if err != nil {
		return nil, fmt.Errorf("sqlmem: %w", err)
	}
	gs := engine.NewGroupState(plan)
	for lo := 0; lo < plan.NumRows; lo += chunkRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + chunkRows
		if hi > plan.NumRows {
			hi = plan.NumRows
		}
		gs.ScanRange(lo, hi)
	}
	res := gs.SnapshotExact()

	// Column layout: one column per bin dimension, then one per aggregate.
	cols := make([]string, 0, len(q.Bins)+len(q.Aggs))
	for i := range q.Bins {
		cols = append(cols, fmt.Sprintf("bin%d", i))
	}
	for _, a := range q.Aggs {
		cols = append(cols, a.String())
	}

	out := make([][]driver.Value, 0, len(res.Bins))
	for _, key := range res.SortedKeys() {
		bv := res.Bins[key]
		row := make([]driver.Value, 0, len(cols))
		comps := [2]int64{key.A, key.B}
		for i, b := range q.Bins {
			if b.Kind == dataset.Nominal {
				// Nominal bins surface the value, like a real SQL engine.
				row = append(row, plan.BinDicts[i].Value(uint32(comps[i])))
			} else {
				// Quantitative bins surface the FLOOR() result.
				row = append(row, comps[i])
			}
		}
		for _, v := range bv.Values {
			row = append(row, v)
		}
		out = append(out, row)
	}
	return &rows{cols: cols, data: out}, nil
}

// rows implements driver.Rows over materialized values.
type rows struct {
	cols []string
	data [][]driver.Value
	pos  int
}

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.data) {
		return io.EOF
	}
	copy(dest, r.data[r.pos])
	r.pos++
	return nil
}
