package enginetest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/query"
	"idebench/internal/stats"
)

// TestPermutedSequentialMatchesGatherBitwise is the storage-layer property
// test behind the progressive engines' permuted materialization: scanning a
// prefix of the permutation via ScanRows on the original table (the old
// random-order gather path) and scanning the same logical rows via a
// sequential ScanRange over the permutation-ordered copy
// (dataset.ReorderTable / ReorderFact) must produce bitwise-identical group
// states — same bins, same counts, same moments, same min/max. Both
// paths fold the same value sequence through the same batch kernels at the
// same batch boundaries, so even float accumulation order is identical.
func TestPermutedSequentialMatchesGatherBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	queries := func(normalized bool) []*query.Query {
		qs := enginetest.MultiVizQueries(6)
		if !normalized {
			return qs
		}
		// NormalizedDB reaches carrier/origin_state through FK columns and
		// adds a dimension-side nominal; cover the FK kernels too.
		qs = append(qs, &query.Query{
			VizName: "viz_region", Table: "flights",
			Bins: []query.Binning{{Field: "carrier_region", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Avg, Field: "arr_delay"}},
			Filter: query.Filter{Predicates: []query.Predicate{
				{Field: "carrier", Op: query.OpIn, Values: []string{"AA", "DL", "WN"}},
			}},
		})
		return qs
	}
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(3*engine.BatchRows) // sub-batch through multi-batch
		normalized := trial%3 == 2
		var db *dataset.Database
		if normalized {
			db = enginetest.NormalizedDB(rows, int64(trial))
		} else {
			db = enginetest.SmallDB(rows, int64(trial))
		}
		perm := stats.Permutation(rng, rows)
		permDB, err := db.ReorderFact(perm)
		if err != nil {
			t.Fatal(err)
		}
		prefix := 1 + rng.Intn(rows)
		for qi, q := range queries(normalized) {
			label := fmt.Sprintf("trial %d query %d (rows=%d prefix=%d normalized=%v)",
				trial, qi, rows, prefix, normalized)
			gatherPlan, err := engine.Compile(db, q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			seqPlan, err := engine.Compile(permDB, q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			gather := engine.NewGroupState(gatherPlan)
			gather.ScanRows(perm[:prefix])
			seq := engine.NewGroupState(seqPlan)
			seq.ScanRange(0, prefix)
			gatherBins, seqBins := binStates(gather), binStates(seq)
			if len(gatherBins) != len(seqBins) {
				t.Fatalf("%s: %d groups sequential, %d gather", label, len(seqBins), len(gatherBins))
			}
			for key, want := range gatherBins {
				got, ok := seqBins[key]
				if !ok {
					t.Fatalf("%s: sequential path missing bin %v", label, key)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: bin %v accumulators differ:\n gather %+v\n    seq %+v",
						label, key, want, got)
				}
			}
		}
	}
}

// binStates collects a state's bins by key.
func binStates(g *engine.GroupState) map[query.BinKey]engine.Accum {
	out := make(map[query.BinKey]engine.Accum)
	g.ForEachBin(func(key query.BinKey, acc engine.Accum) { out[key] = acc })
	return out
}
