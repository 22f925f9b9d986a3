package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
)

func replayTestCfg() Config {
	return Config{
		Rows: 4000, Interactions: 6,
		TRs:  []time.Duration{40 * time.Millisecond},
		Seed: 1, Out: io.Discard,
	}.withDefaults()
}

// TestReplayPointInvariants runs replayPoint over every topology kind, with
// and without live ingest, and asserts once what every sweep relies on.
func TestReplayPointInvariants(t *testing.T) {
	cfg := replayTestCfg()
	db, gt, flows, err := replaySetup(cfg, 2, 41000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		topo   topology
		ingest []bool
	}{
		{engineTopology("single", "progressive", db, cfg), []bool{true, false}},
		{tierTopology("coord2", 2, 1, nil, db, cfg), []bool{true, false}},
		{tierTopology("replica_dead", 2, 2, [][2]int{{0, 1}}, db, cfg), []bool{true, false}},
		// A partition with no live replica cannot absorb batches.
		{tierTopology("partition_dead", 2, 2, [][2]int{{1, 0}, {1, 1}}, db, cfg), []bool{false}},
	} {
		for _, ingest := range c.ingest {
			r, err := replayPoint(cfg, db, gt, c.topo, flows, ingest)
			if err != nil {
				t.Fatalf("%s ingest=%v: %v", c.topo.label, ingest, err)
			}
			if r.Topology != c.topo.label || r.Users != len(flows) || r.DeadReplicas != c.topo.dead {
				t.Errorf("%s ingest=%v: point mislabelled: %+v", c.topo.label, ingest, r)
			}
			if r.Queries == 0 || r.QueriesPerSec <= 0 || r.WallClockMS <= 0 {
				t.Errorf("%s ingest=%v: no throughput measured: %+v", c.topo.label, ingest, r)
			}
			if ingest != (r.IngestedRows > 0) || ingest != (r.IngestRowsPerSec > 0) || ingest != r.BitwiseOK {
				t.Errorf("%s ingest=%v: ingested=%d (%.0f rows/s) bitwise=%v", c.topo.label, ingest,
					r.IngestedRows, r.IngestRowsPerSec, r.BitwiseOK)
			}
			wantDegraded := c.topo.deadPartitions > 0
			if r.PartitionsTotal != r.Partitions || r.Degraded != wantDegraded ||
				r.Degraded != (r.PartitionsAnswered < r.PartitionsTotal) ||
				r.Degraded != (r.PopulationFraction > 0 && r.PopulationFraction < 1) {
				t.Errorf("%s ingest=%v: inconsistent coverage %+v over %d partitions", c.topo.label, ingest,
					r.Coverage, r.Partitions)
			}
		}
	}
}

// dropsABatch is a progressive engine that silently loses its second
// ingest batch — the lost-update bug the quiesce gate exists to catch.
type dropsABatch struct {
	engine.Engine
	app     engine.Appender
	batches int
}

func (d *dropsABatch) Watermark() int64 { return d.app.Watermark() }

func (d *dropsABatch) Append(rows *dataset.Table) error {
	if d.batches++; d.batches == 2 {
		return nil
	}
	return d.app.Append(rows)
}

// TestSweepFailsWhenQuiesceGateFails: a sweep over a topology that loses a
// batch must return an error, which is what makes `idebench exp` exit
// non-zero.
func TestSweepFailsWhenQuiesceGateFails(t *testing.T) {
	cfg := replayTestCfg()
	db, gt, flows, err := replaySetup(cfg, 2, 41000)
	if err != nil {
		t.Fatal(err)
	}
	lossy := topology{label: "lossy", prepare: func() (engine.Engine, time.Duration, func(), error) {
		eng := progressive.New(progressive.Config{})
		if err := eng.Prepare(db, engine.Options{Seed: cfg.Seed}); err != nil {
			return nil, 0, nil, err
		}
		return &dropsABatch{Engine: eng, app: eng}, 0, func() {}, nil
	}}
	rows, err := shardSweep(cfg, db, gt, flows, []topology{lossy})
	if err == nil || !strings.Contains(err.Error(), "quiesce") {
		t.Fatalf("sweep over a batch-dropping engine returned rows=%+v err=%v, want a quiesce error", rows, err)
	}
}

// TestRestartRecoversBitwise runs the warm-restart cycle small. Whether the
// warm boot beat the cold one is timing, which a unit test on a shared host
// cannot assert; that the recovered state is bitwise-correct it can.
func TestRestartRecoversBitwise(t *testing.T) {
	var buf bytes.Buffer
	res, err := Restart(Config{Rows: 20_000, Seed: 1, Out: &buf})
	if res == nil {
		t.Fatal(err)
	}
	if !res.Bitwise || res.IngestedRows != 10*200 || res.WarmTotalMS <= 0 || res.ColdPrepareMS <= 0 {
		t.Fatalf("restart result: %+v", res)
	}
	if !strings.Contains(buf.String(), "cold prepare") {
		t.Fatalf("restart printed no cold-vs-warm line:\n%s", buf.String())
	}
}
