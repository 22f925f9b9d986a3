package query

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"idebench/internal/dataset"
)

func validQuery() *Query {
	return &Query{
		VizName: "viz_0",
		Table:   "flights",
		Bins: []Binning{
			{Field: "dep_delay", Kind: dataset.Quantitative, Width: 10},
		},
		Aggs: []Aggregate{{Func: Count}},
	}
}

func TestQueryValidate(t *testing.T) {
	if err := validQuery().Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Query)
	}{
		{"no table", func(q *Query) { q.Table = "" }},
		{"no bins", func(q *Query) { q.Bins = nil }},
		{"three bins", func(q *Query) {
			q.Bins = append(q.Bins, q.Bins[0], q.Bins[0])
		}},
		{"zero width", func(q *Query) { q.Bins[0].Width = 0 }},
		{"binning without field", func(q *Query) { q.Bins[0].Field = "" }},
		{"no aggs", func(q *Query) { q.Aggs = nil }},
		{"bad agg func", func(q *Query) { q.Aggs = []Aggregate{{Func: "median"}} }},
		{"sum without field", func(q *Query) { q.Aggs = []Aggregate{{Func: Sum}} }},
		{"empty IN", func(q *Query) {
			q.Filter = Filter{Predicates: []Predicate{{Field: "x", Op: OpIn}}}
		}},
		{"inverted range", func(q *Query) {
			q.Filter = Filter{Predicates: []Predicate{{Field: "x", Op: OpRange, Lo: 5, Hi: 5}}}
		}},
		{"unknown op", func(q *Query) {
			q.Filter = Filter{Predicates: []Predicate{{Field: "x", Op: "like", Values: []string{"a"}}}}
		}},
		{"predicate without field", func(q *Query) {
			q.Filter = Filter{Predicates: []Predicate{{Op: OpIn, Values: []string{"a"}}}}
		}},
	}
	for _, c := range cases {
		q := validQuery()
		c.mut(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestAggFuncValid(t *testing.T) {
	for _, f := range []AggFunc{Count, Sum, Avg, Min, Max} {
		if !f.Valid() {
			t.Errorf("%s should be valid", f)
		}
	}
	if AggFunc("stddev").Valid() {
		t.Error("stddev should be invalid")
	}
}

func TestAggregateString(t *testing.T) {
	if got := (Aggregate{Func: Count}).String(); got != "COUNT(*)" {
		t.Errorf("COUNT(*) rendering: %q", got)
	}
	if got := (Aggregate{Func: Avg, Field: "dep_delay"}).String(); got != "AVG(dep_delay)" {
		t.Errorf("AVG rendering: %q", got)
	}
}

func TestBinIndex(t *testing.T) {
	b := Binning{Field: "x", Kind: dataset.Quantitative, Width: 10}
	cases := []struct {
		v    float64
		want int64
	}{
		{0, 0}, {9.99, 0}, {10, 1}, {-0.01, -1}, {-10, -1}, {-10.5, -2}, {25, 2},
	}
	for _, c := range cases {
		if got := b.BinIndex(c.v); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// With origin.
	bo := Binning{Field: "x", Kind: dataset.Quantitative, Width: 5, Origin: 2}
	if got := bo.BinIndex(2); got != 0 {
		t.Errorf("BinIndex at origin = %d", got)
	}
	if got := bo.BinIndex(1.9); got != -1 {
		t.Errorf("BinIndex below origin = %d", got)
	}
	if bo.BinLow(0) != 2 || bo.BinLow(1) != 7 {
		t.Error("BinLow wrong")
	}
}

// Property: BinIndex and BinLow are consistent — every value falls in
// [BinLow(idx), BinLow(idx)+Width).
func TestBinIndexBinLowConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := Binning{
			Field:  "x",
			Kind:   dataset.Quantitative,
			Width:  0.5 + rng.Float64()*100,
			Origin: rng.NormFloat64() * 50,
		}
		for i := 0; i < 50; i++ {
			v := rng.NormFloat64() * 1000
			idx := b.BinIndex(v)
			lo := b.BinLow(idx)
			if v < lo-1e-9 || v >= lo+b.Width+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFilterAndImmutable(t *testing.T) {
	base := Filter{}
	f1 := base.And(Predicate{Field: "a", Op: OpIn, Values: []string{"x"}})
	f2 := f1.And(Predicate{Field: "b", Op: OpRange, Lo: 0, Hi: 1})
	if !base.IsEmpty() {
		t.Error("And mutated the receiver")
	}
	if len(f1.Predicates) != 1 || len(f2.Predicates) != 2 {
		t.Error("And chains incorrectly")
	}
}

func TestSignatureStability(t *testing.T) {
	q1 := validQuery()
	q1.Filter = Filter{Predicates: []Predicate{
		{Field: "a", Op: OpIn, Values: []string{"y", "x"}},
		{Field: "b", Op: OpRange, Lo: 1, Hi: 2},
	}}
	q2 := validQuery()
	q2.Filter = Filter{Predicates: []Predicate{
		{Field: "b", Op: OpRange, Lo: 1, Hi: 2},
		{Field: "a", Op: OpIn, Values: []string{"x", "y"}},
	}}
	if q1.Signature() != q2.Signature() {
		t.Error("signature should be order-insensitive for filters")
	}
	q3 := validQuery()
	q3.Bins[0].Width = 20
	if q3.Signature() == validQuery().Signature() {
		t.Error("different binning must change the signature")
	}
}

// TestSignatureGolden pins Signature's bytes: it keys the ground-truth
// cache and every reuse cache, and the predicate keys SignatureKeys shares
// with the engines' selection lookup are the substrings it embeds.
func TestSignatureGolden(t *testing.T) {
	q := &Query{VizName: "v", Table: "flights",
		Bins: []Binning{{Field: "dep_delay", Kind: dataset.Quantitative, Width: 12.5, Origin: -3},
			{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []Aggregate{{Func: Count}, {Func: Avg, Field: "arr_delay"}},
		Filter: Filter{Predicates: []Predicate{
			{Field: "origin", Op: OpIn, Values: []string{"SFO", "JFK", "a|p:b"}},
			{Field: "distance", Op: OpRange, Lo: 100, Hi: 1e6},
			{Field: "dep_time", Op: OpRange, Lo: -0.5, Hi: 0.1},
		}}}
	const want = "7:flights|2|b:9:dep_delay:0:12.5:-3|b:7:carrier:1:0:0|2|a:5:count:0:|a:3:avg:9:arr_delay" +
		"|3|p:33:6:origin:in:3:3:JFK:3:SFO:5:a|p:b|p:25:8:dep_time:range:-0.5:0.1|p:26:8:distance:range:100:1e+06"
	sig, keys := q.SignatureKeys()
	if sig != want || q.Signature() != want {
		t.Fatalf("signature changed:\n got %q\nwant %q", sig, want)
	}
	wantKeys := []string{"6:origin:in:3:3:JFK:3:SFO:5:a|p:b", "8:distance:range:100:1e+06", "8:dep_time:range:-0.5:0.1"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("predicate keys %q, want %q (filter order)", keys, wantKeys)
	}
	q.Filter = Filter{}
	if sig, keys := q.SignatureKeys(); sig != want[:strings.Index(want, "|3|p:")]+"|0" || keys != nil {
		t.Fatalf("unfiltered: signature %q, keys %q", sig, keys)
	}
}

// TestSignatureInjective: IN values and predicates that contain the
// signature's own separators cannot make two different filters collide.
func TestSignatureInjective(t *testing.T) {
	with := func(preds ...Predicate) string {
		q := validQuery()
		q.Filter = Filter{Predicates: preds}
		return q.Signature()
	}
	in := func(vals ...string) Predicate { return Predicate{Field: "carrier", Op: OpIn, Values: vals} }
	cases := []struct {
		name string
		a, b string
	}{
		{"comma inside one IN value", with(in("a,b")), with(in("a", "b"))},
		{"predicate forged inside one IN value", with(in("x|p:carrier:in:y")), with(in("x"), in("y"))},
		{"length-prefix forged inside one IN value", with(in("1:x:1:y")), with(in("x", "y"))},
		{"field name forging a value", with(Predicate{Field: "carrier:in:1:x", Op: OpIn, Values: []string{"y"}}), with(in("x", "y"))},
	}
	for _, c := range cases {
		if c.a == c.b {
			t.Errorf("%s: both filters sign as %q", c.name, c.a)
		}
	}
}

func TestQueryMetadataRendering(t *testing.T) {
	q := &Query{
		Table: "flights",
		Bins: []Binning{
			{Field: "a", Kind: dataset.Quantitative, Width: 1},
			{Field: "b", Kind: dataset.Nominal},
		},
		Aggs: []Aggregate{{Func: Count}, {Func: Avg, Field: "c"}},
	}
	if q.BinDims() != 2 {
		t.Error("BinDims wrong")
	}
	if q.BinningType() != "quantitative nominal" {
		t.Errorf("BinningType = %q", q.BinningType())
	}
	if q.AggType() != "count avg" {
		t.Errorf("AggType = %q", q.AggType())
	}
}

func TestSelectionPredicate(t *testing.T) {
	d := dataset.NewDict()
	d.Code("AA")
	d.Code("UA")
	nom := Binning{Field: "carrier", Kind: dataset.Nominal}
	p := SelectionPredicate(nom, 1, d)
	if p.Op != OpIn || len(p.Values) != 1 || p.Values[0] != "UA" {
		t.Errorf("nominal selection predicate wrong: %+v", p)
	}
	quant := Binning{Field: "delay", Kind: dataset.Quantitative, Width: 10, Origin: 0}
	p = SelectionPredicate(quant, 2, nil)
	if p.Op != OpRange || p.Lo != 20 || p.Hi != 30 {
		t.Errorf("quantitative selection predicate wrong: %+v", p)
	}
}

func TestResultBasics(t *testing.T) {
	r := NewResult()
	r.TotalRows = 100
	r.RowsSeen = 25
	if got := r.Progress(); got != 0.25 {
		t.Errorf("Progress = %v", got)
	}
	r.Complete = true
	if r.Progress() != 1 {
		t.Error("complete result should have progress 1")
	}
	empty := NewResult()
	if empty.Progress() != 0 {
		t.Error("empty result progress should be 0")
	}
	over := NewResult()
	over.TotalRows = 10
	over.RowsSeen = 20
	if over.Progress() != 1 {
		t.Error("progress should clamp at 1")
	}
}

func TestResultSortedKeysAndClone(t *testing.T) {
	r := NewResult()
	r.Bins[BinKey{A: 2}] = &BinValue{Values: []float64{1}, Margins: []float64{0}}
	r.Bins[BinKey{A: 1, B: 5}] = &BinValue{Values: []float64{2}, Margins: []float64{0.5}}
	r.Bins[BinKey{A: 1, B: 3}] = &BinValue{Values: []float64{3}, Margins: []float64{0}}
	keys := r.SortedKeys()
	want := []BinKey{{1, 3}, {1, 5}, {2, 0}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("SortedKeys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}

	c := r.Clone()
	c.Bins[BinKey{A: 2}].Values[0] = 99
	if v, _ := r.ValueAt(BinKey{A: 2}, 0); v == 99 {
		t.Error("Clone aliases the original")
	}
	if _, ok := r.ValueAt(BinKey{A: 42}, 0); ok {
		t.Error("ValueAt of missing bin should report !ok")
	}
	if _, ok := r.ValueAt(BinKey{A: 2}, 5); ok {
		t.Error("ValueAt of out-of-range agg should report !ok")
	}
}

func TestFiniteMargins(t *testing.T) {
	r := NewResult()
	r.Bins[BinKey{}] = &BinValue{Values: []float64{1}, Margins: []float64{0.1}}
	if !r.FiniteMargins() {
		t.Error("finite margins reported infinite")
	}
	r.Bins[BinKey{A: 1}] = &BinValue{Values: []float64{1}, Margins: []float64{math.Inf(1)}}
	if r.FiniteMargins() {
		t.Error("infinite margin not detected")
	}
}

func TestBinKeyLess(t *testing.T) {
	if !(BinKey{A: 1}).Less(BinKey{A: 2}) {
		t.Error("A ordering wrong")
	}
	if !(BinKey{A: 1, B: 1}).Less(BinKey{A: 1, B: 2}) {
		t.Error("B ordering wrong")
	}
	if (BinKey{A: 1, B: 2}).Less(BinKey{A: 1, B: 2}) {
		t.Error("equal keys should not be Less")
	}
}

func TestToSQL(t *testing.T) {
	q := &Query{
		VizName: "viz_3",
		Table:   "flights",
		Bins: []Binning{
			{Field: "dep_delay", Kind: dataset.Quantitative, Width: 10},
			{Field: "carrier", Kind: dataset.Nominal},
		},
		Aggs: []Aggregate{{Func: Count}, {Func: Avg, Field: "arr_delay"}},
		Filter: Filter{Predicates: []Predicate{
			{Field: "carrier", Op: OpIn, Values: []string{"AA"}},
			{Field: "distance", Op: OpRange, Lo: 100, Hi: 500},
		}},
	}
	sql := q.ToSQL()
	for _, want := range []string{
		"SELECT FLOOR(dep_delay/10) AS bin0, carrier AS bin1, COUNT(*), AVG(arr_delay)",
		"FROM flights",
		"WHERE carrier = 'AA' AND (distance >= 100 AND distance < 500)",
		"GROUP BY bin0, bin1",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestToSQLOriginAndMultiIn(t *testing.T) {
	q := validQuery()
	q.Bins[0].Origin = 5
	q.Filter = Filter{Predicates: []Predicate{
		{Field: "carrier", Op: OpIn, Values: []string{"AA", "O'Hare"}},
	}}
	sql := q.ToSQL()
	if !strings.Contains(sql, "FLOOR((dep_delay - 5)/10)") {
		t.Errorf("origin not rendered: %s", sql)
	}
	if !strings.Contains(sql, "carrier IN ('AA', 'O''Hare')") {
		t.Errorf("IN list / escaping wrong: %s", sql)
	}
}

func TestPredicateToSQLUnknownOp(t *testing.T) {
	p := Predicate{Field: "x", Op: "like"}
	if !strings.Contains(p.ToSQL(), "TRUE") {
		t.Error("unknown op should render safe TRUE")
	}
}

func TestFilterToSQLEmpty(t *testing.T) {
	if (Filter{}).ToSQL() != "" {
		t.Error("empty filter should render empty string")
	}
	q := validQuery()
	if strings.Contains(q.ToSQL(), "WHERE") {
		t.Error("unfiltered query should have no WHERE clause")
	}
}
