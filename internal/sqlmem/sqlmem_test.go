package sqlmem

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"idebench/internal/dataset"
	"idebench/internal/enginetest"
	"idebench/internal/query"
)

func parseQ(t *testing.T, sqlText string) *query.Query {
	t.Helper()
	db := enginetest.SmallDB(100, 1)
	q, err := Parse(sqlText, db)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sqlText, err)
	}
	return q
}

func TestParseSimpleCount(t *testing.T) {
	q := parseQ(t, "SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin0")
	if q.Table != "flights" || len(q.Bins) != 1 || q.Bins[0].Field != "carrier" {
		t.Errorf("parsed query wrong: %+v", q)
	}
	if q.Bins[0].Kind != dataset.Nominal {
		t.Error("carrier should parse as nominal binning")
	}
	if len(q.Aggs) != 1 || q.Aggs[0].Func != query.Count {
		t.Errorf("aggs wrong: %+v", q.Aggs)
	}
}

func TestParseFloorVariants(t *testing.T) {
	q := parseQ(t, "SELECT FLOOR(dep_delay/10) AS bin0, COUNT(*) FROM flights GROUP BY bin0")
	if q.Bins[0].Width != 10 || q.Bins[0].Origin != 0 {
		t.Errorf("floor binning wrong: %+v", q.Bins[0])
	}
	q = parseQ(t, "SELECT FLOOR((dep_delay - -20.5)/59.7) AS bin0, AVG(arr_delay) FROM flights GROUP BY bin0")
	if q.Bins[0].Origin != -20.5 || q.Bins[0].Width != 59.7 {
		t.Errorf("negative origin wrong: %+v", q.Bins[0])
	}
	if q.Aggs[0].Func != query.Avg || q.Aggs[0].Field != "arr_delay" {
		t.Errorf("avg agg wrong: %+v", q.Aggs[0])
	}
}

func TestParse2DAndPredicates(t *testing.T) {
	sqlText := "SELECT FLOOR(dep_delay/10) AS bin0, carrier AS bin1, COUNT(*), SUM(distance) " +
		"FROM flights WHERE carrier IN ('AA', 'UA') AND (distance >= 100 AND distance < 500) " +
		"AND origin_state = 'CA' GROUP BY bin0, bin1"
	q := parseQ(t, sqlText)
	if len(q.Bins) != 2 || len(q.Aggs) != 2 {
		t.Fatalf("shape wrong: %+v", q)
	}
	if len(q.Filter.Predicates) != 3 {
		t.Fatalf("predicates = %d, want 3", len(q.Filter.Predicates))
	}
	in := q.Filter.Predicates[0]
	if in.Op != query.OpIn || len(in.Values) != 2 {
		t.Errorf("IN predicate wrong: %+v", in)
	}
	rng := q.Filter.Predicates[1]
	if rng.Op != query.OpRange || rng.Lo != 100 || rng.Hi != 500 {
		t.Errorf("range predicate wrong: %+v", rng)
	}
	eq := q.Filter.Predicates[2]
	if eq.Op != query.OpIn || eq.Values[0] != "CA" {
		t.Errorf("equality predicate wrong: %+v", eq)
	}
}

func TestParseEscapedQuote(t *testing.T) {
	db := enginetest.SmallDB(100, 1)
	q, err := Parse("SELECT carrier AS bin0, COUNT(*) FROM flights WHERE carrier = 'O''Hare' GROUP BY bin0", db)
	if err != nil {
		t.Fatal(err)
	}
	if q.Filter.Predicates[0].Values[0] != "O'Hare" {
		t.Errorf("escaped quote mangled: %q", q.Filter.Predicates[0].Values[0])
	}
}

func TestParseErrors(t *testing.T) {
	db := enginetest.SmallDB(100, 1)
	bad := []string{
		"",
		"UPDATE flights SET x = 1",
		"SELECT COUNT(*) FROM flights", // no bins → GROUP BY fails
		"SELECT carrier AS bin0 FROM flights GROUP BY bin0",                 // no aggregate
		"SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin1",       // wrong alias
		"SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin0, bin1", // extra group
		"SELECT dep_delay AS bin0, COUNT(*) FROM flights GROUP BY bin0",     // bare quantitative
		"SELECT carrier AS bin0, AVG(*) FROM flights GROUP BY bin0",         // AVG(*)
		"SELECT carrier AS bin0, COUNT(*) FROM flights WHERE carrier = 5 GROUP BY bin0",
		"SELECT carrier AS bin0, COUNT(*) FROM flights WHERE (distance >= 1 AND dep_delay < 5) GROUP BY bin0", // mismatched range fields
		"SELECT carrier AS bin0, COUNT(*) FROM flights WHERE carrier > 'AA' GROUP BY bin0",                    // unsupported op
		"SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin0 HAVING x",                                // trailing
		"SELECT ghost AS bin0, COUNT(*) FROM flights GROUP BY bin0",                                           // unknown field
	}
	for _, s := range bad {
		if _, err := Parse(s, db); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// Property: any valid generated query survives ToSQL → Parse with the same
// signature — the adapter round trip is lossless.
func TestToSQLParseRoundTripProperty(t *testing.T) {
	db := enginetest.SmallDB(500, 7)
	f := func(seed int64) bool {
		q := randomQuery(seed)
		parsed, err := Parse(q.ToSQL(), db)
		if err != nil {
			return false
		}
		parsed.VizName = q.VizName // not part of SQL
		return parsed.Signature() == q.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomQuery builds a valid random query over the enginetest schema.
func randomQuery(seed int64) *query.Query {
	rng := newRng(seed)
	q := &query.Query{VizName: "v", Table: "flights"}
	nominal := []string{"carrier", "origin_state"}
	quant := []string{"dep_delay", "arr_delay", "distance"}

	dims := 1 + rng.Intn(2)
	for i := 0; i < dims; i++ {
		if rng.Intn(2) == 0 {
			q.Bins = append(q.Bins, query.Binning{Field: nominal[rng.Intn(len(nominal))], Kind: dataset.Nominal})
		} else {
			q.Bins = append(q.Bins, query.Binning{
				Field: quant[rng.Intn(len(quant))], Kind: dataset.Quantitative,
				Width:  float64(1+rng.Intn(100)) / 4,
				Origin: float64(rng.Intn(41) - 20),
			})
		}
	}
	funcs := []query.AggFunc{query.Count, query.Sum, query.Avg, query.Min, query.Max}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		fn := funcs[rng.Intn(len(funcs))]
		a := query.Aggregate{Func: fn}
		if fn != query.Count {
			a.Field = quant[rng.Intn(len(quant))]
		}
		q.Aggs = append(q.Aggs, a)
	}
	if rng.Intn(2) == 0 {
		q.Filter = q.Filter.And(query.Predicate{
			Field: "carrier", Op: query.OpIn,
			Values: []string{"AA", "UA"}[:1+rng.Intn(2)],
		})
	}
	if rng.Intn(2) == 0 {
		lo := float64(rng.Intn(100))
		q.Filter = q.Filter.And(query.Predicate{
			Field: "distance", Op: query.OpRange, Lo: lo, Hi: lo + float64(1+rng.Intn(500)),
		})
	}
	return q
}

func TestDriverEndToEnd(t *testing.T) {
	db := enginetest.SmallDB(20000, 5)
	sqdb, err := Register("e2e", db)
	if err != nil {
		t.Fatal(err)
	}
	defer Unregister("e2e")
	defer sqdb.Close()

	rows, err := sqdb.Query("SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin0")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	total := 0.0
	seen := 0
	for rows.Next() {
		var carrier string
		var count float64
		if err := rows.Scan(&carrier, &count); err != nil {
			t.Fatal(err)
		}
		if carrier == "" {
			t.Error("empty carrier value")
		}
		total += count
		seen++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if total != 20000 {
		t.Errorf("total count = %v, want 20000", total)
	}
	if seen != len(enginetest.Carriers) {
		t.Errorf("groups = %d, want %d", seen, len(enginetest.Carriers))
	}
}

func TestDriverMatchesGroundTruth(t *testing.T) {
	db := enginetest.SmallDB(15000, 9)
	sqdb, err := Register("gt", db)
	if err != nil {
		t.Fatal(err)
	}
	defer Unregister("gt")
	defer sqdb.Close()

	q := enginetest.AvgDelayByDistance()
	gt, err := enginetest.Exact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sqdb.Query(q.ToSQL())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	matched := 0
	for rows.Next() {
		var bin int64
		var avg float64
		if err := rows.Scan(&bin, &avg); err != nil {
			t.Fatal(err)
		}
		want, ok := gt.ValueAt(query.BinKey{A: bin}, 0)
		if !ok {
			t.Errorf("unexpected bin %d", bin)
			continue
		}
		if math.Abs(avg-want) > 1e-9 {
			t.Errorf("bin %d: avg %v, want %v", bin, avg, want)
		}
		matched++
	}
	if matched != len(gt.Bins) {
		t.Errorf("bins = %d, want %d", matched, len(gt.Bins))
	}
}

func TestDriverContextCancellation(t *testing.T) {
	db := enginetest.SmallDB(200000, 11)
	sqdb, err := Register("cancel", db)
	if err != nil {
		t.Fatal(err)
	}
	defer Unregister("cancel")
	defer sqdb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sqdb.QueryContext(ctx, "SELECT carrier AS bin0, COUNT(*) FROM flights GROUP BY bin0"); err == nil {
		t.Error("cancelled context should fail the query")
	}
}

func TestDriverErrors(t *testing.T) {
	db := enginetest.SmallDB(100, 13)
	sqdb, err := Register("errs", db)
	if err != nil {
		t.Fatal(err)
	}
	defer Unregister("errs")
	defer sqdb.Close()
	if _, err := sqdb.Query("SELECT nope"); err == nil {
		t.Error("bad SQL should fail")
	}
	if _, err := sqdb.Exec("DELETE FROM flights"); err == nil {
		t.Error("writes should fail")
	}
	if _, err := sqdb.Begin(); err == nil {
		t.Error("transactions should fail")
	}
	if _, err := sqdb.Query("SELECT carrier AS bin0, COUNT(*) FROM flights WHERE carrier = ? GROUP BY bin0", "AA"); err == nil {
		t.Error("placeholders should fail")
	}

	// Unknown DSN.
	other, err := sql.Open("sqlmem", "ghost-dsn")
	if err == nil {
		if pingErr := other.Ping(); pingErr == nil {
			t.Error("unknown DSN should fail")
		}
		other.Close()
	}
	if _, err := Register("nil-db", nil); err == nil {
		t.Error("nil database should be rejected")
	}
}

// newRng is a tiny deterministic RNG to avoid importing math/rand at top
// level twice in tests.
type simpleRng struct{ state uint64 }

func newRng(seed int64) *simpleRng {
	return &simpleRng{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *simpleRng) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

var _ = fmt.Sprintf // keep fmt for debug helpers
