package experiments

import (
	"io"
	"testing"
	"time"
)

// TestShardSweepCountsQuiesceBitwise runs a reduced shards-vs-single-node
// sweep and requires every point — baseline and coordinator alike — to pass
// the quiesce-bitwise gate with a sane measured shape.
func TestShardSweepCountsQuiesceBitwise(t *testing.T) {
	rows, err := ShardSweepCounts(Config{
		Rows: 4000, WorkflowsPerType: 1, Interactions: 6,
		TRs:  []time.Duration{40 * time.Millisecond},
		Seed: 1, Out: io.Discard,
	}, []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want single + shard2 + shard3", len(rows))
	}
	if rows[0].Topology != "single" || rows[1].Topology != "shard2" || rows[2].Topology != "shard3" {
		t.Fatalf("unexpected topologies: %+v", rows)
	}
	for _, r := range rows {
		if !r.BitwiseOK {
			t.Fatalf("%s: quiesce-bitwise gate failed: %+v", r.Topology, r)
		}
		if r.Queries == 0 || r.QueriesPerSec <= 0 {
			t.Fatalf("%s: no throughput measured: %+v", r.Topology, r)
		}
		if r.IngestedRows == 0 {
			t.Fatalf("%s: replay fed no ingest", r.Topology)
		}
	}
	if rows[1].Partitions != 2 || rows[2].Partitions != 3 {
		t.Fatalf("shard counts wrong: %+v", rows)
	}
}
