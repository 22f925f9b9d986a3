package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// goldenPartialStates builds the fixed seeded states whose wire bytes are
// pinned in testdata/partial_golden.txt: dense and map-indexed tables, 1-D and
// 2-D, every aggregate kind, filtered and not, each split at a fixed row and
// merged (so the Welford parallel-merge path is in the bytes too).
func goldenPartialStates(t *testing.T) map[string]*Partial {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	db := randomDB(t, rng, 2*BatchRows+517, true)
	nominal := func(f string) query.Binning { return query.Binning{Field: f, Kind: dataset.Nominal} }
	quant := func(f string, w float64) query.Binning {
		return query.Binning{Field: f, Kind: dataset.Quantitative, Width: w, Origin: -37.5}
	}
	cases := map[string]*query.Query{
		"count_1d": {Bins: []query.Binning{nominal("cat_a")},
			Aggs: []query.Aggregate{{Func: query.Count}}},
		"filtered_all_aggs": {Bins: []query.Binning{nominal("dim_cat")},
			Aggs: []query.Aggregate{
				{Func: query.Avg, Field: "x"}, {Func: query.Min, Field: "y"},
				{Func: query.Max, Field: "dim_q"}, {Func: query.Sum, Field: "y"},
				{Func: query.Count, Field: "x"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "x", Op: query.OpRange, Lo: -80, Hi: 120},
				{Field: "cat_b", Op: query.OpIn, Values: []string{"b1", "b3", "nope"}}}}},
		"avg_2d": {Bins: []query.Binning{quant("x", 50), nominal("cat_b")},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "y"}}},
		"minmax_map": {Bins: []query.Binning{quant("y", 1)},
			Aggs: []query.Aggregate{{Func: query.Min, Field: "x"}, {Func: query.Max, Field: "x"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "cat_b", Op: query.OpIn, Values: []string{"b2"}},
				{Field: "x", Op: query.OpRange, Lo: 0, Hi: 25}}}},
	}
	out := make(map[string]*Partial, len(cases))
	for name, q := range cases {
		q.VizName, q.Table = "v", "fact"
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := NewGroupState(plan), NewGroupState(plan)
		split := BatchRows + 1000
		a.ScanRange(0, split)
		b.ScanRange(split, plan.NumRows)
		a.Merge(b)
		n := int64(plan.NumRows)
		out[name] = a.Partial(n, n, n, true)
	}
	return out
}

// TestPartialGoldenBytes pins the engine.Partial wire form: the marshalled
// bytes of fixed seeded states must equal the checked-in bytes (produced by
// the commit before the flat accumulator table), whatever the in-memory
// representation behind them.
func TestPartialGoldenBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/partial_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, body, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = body
	}
	got := goldenPartialStates(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, %d built", len(want), len(got))
	}
	for name, p := range got {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want[name] {
			t.Errorf("%s: wire bytes differ from golden\n got %.200s\nwant %.200s", name, data, want[name])
		}
	}
}

// TestPartialFoldDropsMalformedBins: a coordinator folds what shards send, so
// a bin no GroupState could have produced — a non-positive row count, a
// negative moment count — must neither panic the render nor disturb the bins
// well-formed fragments filled.
func TestPartialFoldDropsMalformedBins(t *testing.T) {
	aggs := []query.Aggregate{{Func: query.Count}, {Func: query.Avg, Field: "x"}}
	good := func() *Partial {
		return &Partial{RowsSeen: 3, Population: 9, Bins: []PartialBin{
			{Key: query.BinKey{A: 1}, N: 3, W: []WelfordWire{{}, {N: 3, Mean: 2}}}}}
	}
	want := NewPartialFold(aggs)
	want.Add(good())
	wantRes := want.Render(1.96)

	for name, bad := range map[string]PartialBin{
		"negative n":        {Key: query.BinKey{A: 1}, N: -3},
		"zero n":            {Key: query.BinKey{A: 2}, N: 0},
		"negative new bin":  {Key: query.BinKey{A: 5}, N: -1},
		"negative moment n": {Key: query.BinKey{A: 1}, N: 2, W: []WelfordWire{{}, {N: -2, Mean: 7}}},
	} {
		// Alone, with rows seen: the frame of the review's reproduction.
		fold := NewPartialFold(aggs)
		fold.Add(&Partial{RowsSeen: 3, Population: 9, Bins: []PartialBin{bad}})
		if res := fold.Render(1.96); len(res.Bins) != 0 {
			t.Errorf("%s alone: rendered %d bins, want 0", name, len(res.Bins))
		}
		// Beside a well-formed fragment, in either order.
		for _, badFirst := range []bool{true, false} {
			fold := NewPartialFold(aggs)
			frames := []*Partial{good(), {Bins: []PartialBin{bad}}}
			if badFirst {
				frames[0], frames[1] = frames[1], frames[0]
			}
			for _, p := range frames {
				fold.Add(p)
			}
			if res := fold.Render(1.96); !reflect.DeepEqual(res.Bins, wantRes.Bins) {
				t.Errorf("%s (bad first: %v): bins %v, want %v", name, badFirst, res.Bins, wantRes.Bins)
			}
		}
	}

	// Counts that overflow to a negative sum unmark the bin; they do not panic.
	fold := NewPartialFold(aggs)
	huge := &Partial{RowsSeen: 1, Population: 1, Bins: []PartialBin{{Key: query.BinKey{A: 1}, N: math.MaxInt64}}}
	fold.Add(huge)
	fold.Add(huge)
	if res := fold.Render(1.96); len(res.Bins) != 0 {
		t.Errorf("overflowed count rendered %d bins, want 0", len(res.Bins))
	}
}

// FuzzPartialRoundTrip feeds arbitrary bytes to the Partial decoder — the
// frame a coordinator reads off a shard connection. Whatever decodes must
// re-encode canonically (decode∘encode is the identity on the encoding) and
// must fold and render without panicking, short or missing per-aggregate
// arrays included.
func FuzzPartialRoundTrip(f *testing.F) {
	f.Add([]byte(`{"rows_seen":3,"population":9,"watermark":9,"complete":false,"bins":[` +
		`{"key":{"A":1,"B":0},"n":3,"w":[{"n":3,"mean":4607182418800017408,"m2":0}],` +
		`"mins":[9218868437227405312],"maxs":[18442240474082181120]}]}`))
	f.Add([]byte(`{"bins":[{"key":{"A":-4,"B":2},"n":0},{"key":{"A":-4,"B":2},"n":2,"w":[]}]}`))
	f.Add([]byte(`{"complete":true}`))
	// Counts no producer emits: negative, summing to zero across bins of one
	// key, and overflowing int64 when the frame is added twice.
	f.Add([]byte(`{"rows_seen":3,"population":9,"bins":[{"key":{"A":1,"B":0},"n":-3}]}`))
	f.Add([]byte(`{"rows_seen":3,"population":9,"bins":[{"key":{"A":1,"B":0},"n":2},` +
		`{"key":{"A":1,"B":0},"n":-2,"w":[{"n":0,"mean":0,"m2":0},{"n":-2,"mean":0,"m2":0}]}]}`))
	f.Add([]byte(`{"rows_seen":1,"population":1,"bins":[{"key":{"A":0,"B":0},"n":9223372036854775807}]}`))
	aggs := []query.Aggregate{
		{Func: query.Count}, {Func: query.Avg, Field: "x"},
		{Func: query.Min, Field: "x"}, {Func: query.Max, Field: "x"}, {Func: query.Sum, Field: "x"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if json.Unmarshal(data, &p) != nil {
			return
		}
		enc, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("decoded partial does not re-encode: %v", err)
		}
		var again Partial
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("own encoding does not decode: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
		fold := NewPartialFold(aggs)
		fold.Add(&p)
		fold.Add(&again)
		if res := fold.Render(1.96); res == nil {
			t.Fatal("nil render")
		}
	})
}
