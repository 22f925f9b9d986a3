package experiments

import (
	"io"
	"testing"
	"time"
)

// TestElasticSweepLadder runs a reduced availability ladder over a 2x2
// replicated tier and checks the scenario-by-scenario contract: fully
// covered points pass the quiesce-bitwise gate, the dead-partition point
// degrades by exactly one partition with a sane population fraction, and
// every scenario answers queries.
func TestElasticSweepLadder(t *testing.T) {
	rows, err := ElasticSweepSpec(Config{
		Rows: 4000, WorkflowsPerType: 1, Interactions: 6,
		TRs:  []time.Duration{40 * time.Millisecond},
		Seed: 1, Out: io.Discard,
	}, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want all_up + replica_dead + partition_dead", len(rows))
	}
	byName := map[string]ReplayRow{}
	for _, r := range rows {
		byName[r.Topology] = r
		if r.Queries == 0 {
			t.Fatalf("%s: replay answered no queries: %+v", r.Topology, r)
		}
	}
	for _, name := range []string{"all_up", "replica_dead"} {
		r := byName[name]
		if r.Degraded || r.PartitionsAnswered != 2 || r.PopulationFraction != 1 {
			t.Fatalf("%s: expected full coverage, got %+v", name, r)
		}
		if !r.BitwiseOK {
			t.Fatalf("%s: quiesce-bitwise gate failed: %+v", name, r)
		}
		if r.IngestedRows == 0 {
			t.Fatalf("%s: replay fed no ingest", name)
		}
	}
	pd := byName["partition_dead"]
	if !pd.Degraded || pd.PartitionsAnswered != 1 || pd.PartitionsTotal != 2 {
		t.Fatalf("partition_dead: expected 1/2 degraded coverage, got %+v", pd)
	}
	if pd.PopulationFraction <= 0 || pd.PopulationFraction >= 1 {
		t.Fatalf("partition_dead: population fraction %v outside (0,1)", pd.PopulationFraction)
	}
	if pd.DeadReplicas != 2 {
		t.Fatalf("partition_dead: dead replicas = %d, want 2", pd.DeadReplicas)
	}
}
