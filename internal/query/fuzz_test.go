package query_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// fuzzTable builds a small table with the fixture schema so the workload
// generator can seed the corpus with realistic queries.
func fuzzTable(tb testing.TB) *dataset.Table {
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "origin_state", Kind: dataset.Nominal},
		{Name: "dep_delay", Kind: dataset.Quantitative},
		{Name: "distance", Kind: dataset.Quantitative},
	})
	carriers := []string{"AA", "UA", "DL"}
	states := []string{"CA", "TX", "NY", "FL"}
	rng := rand.New(rand.NewSource(11))
	b := dataset.NewBuilder("flights", schema, 512)
	for i := 0; i < 512; i++ {
		b.AppendString(0, carriers[rng.Intn(len(carriers))])
		b.AppendString(1, states[rng.Intn(len(states))])
		b.AppendNum(2, rng.NormFloat64()*20)
		b.AppendNum(3, 100+rng.Float64()*2400)
	}
	tbl, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// corpusQueries replays generated workflows through the viz graph and
// collects every query the driver would issue — the seed corpus both fuzz
// targets start from.
func corpusQueries(tb testing.TB) []*query.Query {
	gen, err := workflow.NewGenerator(fuzzTable(tb))
	if err != nil {
		tb.Fatal(err)
	}
	flows, err := gen.GenerateSet(1, 12, 23)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*query.Query
	for _, w := range flows {
		graph := workflow.NewGraph()
		for _, in := range w.Interactions {
			eff, err := graph.Apply(in)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, eff.Queries...)
		}
	}
	if len(out) == 0 {
		tb.Fatal("workload generator produced no queries for the corpus")
	}
	return out
}

// FuzzParseQuery decodes arbitrary JSON into a Query and checks the paths
// every decoded query flows through — validation, signature, SQL rendering,
// re-encoding — never panic, and that decode→encode→decode is a fixpoint:
// the re-decoded query is semantically identical (deep-equal, same
// signature, same SQL) and re-encodes to the same bytes.
func FuzzParseQuery(f *testing.F) {
	for _, q := range corpusQueries(f) {
		data, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hand-picked awkward shapes: empty object, nulls, wrong arity, huge
	// numbers, quoting hazards.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"bins":null,"aggs":null}`))
	f.Add([]byte(`{"table":"t","bins":[{"field":"x","kind":1,"width":0}],"aggs":[{"func":"avg"}]}`))
	f.Add([]byte(`{"table":"t'--","bins":[{"field":"a","kind":0}],"aggs":[{"func":"count"}],` +
		`"filter":{"predicates":[{"field":"a","op":"in","values":["O'Hare"]}]}}`))
	f.Add([]byte(`{"bins":[{"width":1e308,"origin":-1e308,"kind":1,"field":"x"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var q1 query.Query
		if err := json.Unmarshal(data, &q1); err != nil {
			t.Skip() // not a query document
		}
		// None of these may panic, valid query or not.
		_ = q1.Validate()
		sig1 := q1.Signature()
		sql1 := q1.ToSQL()
		_ = q1.BinDims()
		_ = q1.BinningType()
		_ = q1.AggType()

		enc1, err := json.Marshal(&q1)
		if err != nil {
			t.Fatalf("decoded query failed to encode: %v", err)
		}
		var q2 query.Query
		if err := json.Unmarshal(enc1, &q2); err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %s", err, enc1)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("decode→encode→decode changed the query:\n was: %#v\n now: %#v", q1, q2)
		}
		if sig2 := q2.Signature(); sig2 != sig1 {
			t.Fatalf("signature unstable across round-trip:\n was: %s\n now: %s", sig1, sig2)
		}
		if sql2 := q2.ToSQL(); sql2 != sql1 {
			t.Fatalf("SQL rendering unstable across round-trip:\n was: %s\n now: %s", sql1, sql2)
		}
		enc2, err := json.Marshal(&q2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc1) != string(enc2) {
			t.Fatalf("encoding not a fixpoint:\n was: %s\n now: %s", enc1, enc2)
		}
	})
}

// corpusResults shapes results like real engine output for the corpus
// queries: the seeds of both result fuzzers.
func corpusResults(tb testing.TB) []*query.Result {
	var out []*query.Result
	for i, q := range corpusQueries(tb) {
		res := query.NewResult()
		res.TotalRows = 512
		res.RowsSeen = int64(100 + i)
		res.Complete = i%2 == 0
		nAggs := len(q.Aggs)
		for b := 0; b < 3; b++ {
			vals := make([]float64, nAggs)
			margs := make([]float64, nAggs)
			for a := range vals {
				vals[a] = float64(i*7+b) * 1.5
				margs[a] = float64(b) * 0.25
			}
			res.Bins[query.BinKey{A: int64(b), B: int64(i % 2)}] = &query.BinValue{Values: vals, Margins: margs}
		}
		out = append(out, res)
	}
	return out
}

// FuzzResultBinary feeds arbitrary bytes to the decoder of the form results
// are streamed in. Whatever decodes must re-encode to bytes that decode again
// and are a fixed point of decode∘encode (the first decode may legitimately
// collapse duplicate bin keys or reorder them).
func FuzzResultBinary(f *testing.F) {
	for i, res := range corpusResults(f) {
		if i%3 == 0 {
			res.Coverage = &query.Coverage{PartitionsAnswered: 1, PartitionsTotal: 2, PopulationFraction: 0.5, Degraded: true}
		}
		f.Add(res.AppendBinary(nil))
	}
	f.Add(query.NewResult().AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r1 query.Result
		if r1.UnmarshalBinary(data) != nil {
			return // rejected input is fine; panics are not
		}
		enc1 := r1.AppendBinary(nil)
		var r2 query.Result
		if err := r2.UnmarshalBinary(enc1); err != nil {
			t.Fatalf("own encoding does not decode: %v\n%x", err, enc1)
		}
		if enc2 := r2.AppendBinary(nil); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc1, enc2)
		}
		if len(r1.Bins) != len(r2.Bins) || r1.RowsSeen != r2.RowsSeen || r1.Complete != r2.Complete {
			t.Fatalf("decode∘encode changed the result")
		}
	})
}

// FuzzResultRoundTrip checks the Result JSON document: any document the
// custom unmarshaler accepts must re-encode deterministically, and the
// encoding must be a fixpoint from the first re-encode on (the first decode
// may legitimately collapse duplicate bin keys).
func FuzzResultRoundTrip(f *testing.F) {
	for _, res := range corpusResults(f) {
		data, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"bins":[],"rows_seen":0,"total_rows":0,"complete":false}`))
	f.Add([]byte(`{"bins":[{"key":[1,2],"values":[1],"margins":[0]},{"key":[1,2],"values":[2],"margins":[0]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r1 query.Result
		if err := json.Unmarshal(data, &r1); err != nil {
			t.Skip() // rejected documents are fine; panics are not
		}
		enc1, err := json.Marshal(&r1)
		if err != nil {
			t.Fatalf("decoded result failed to encode: %v", err)
		}
		var r2 query.Result
		if err := json.Unmarshal(enc1, &r2); err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %s", err, enc1)
		}
		enc2, err := json.Marshal(&r2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc1) != string(enc2) {
			t.Fatalf("result encoding not a fixpoint:\n was: %s\n now: %s", enc1, enc2)
		}
		if r1.Progress() < 0 || (r1.TotalRows > 0 && r1.Progress() > 1) {
			t.Fatalf("progress out of range: %v", r1.Progress())
		}
	})
}
