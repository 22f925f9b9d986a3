package experiments

import (
	"fmt"
	"os"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
)

// RestartResult is the warm-restart measurement: how long a durable
// server takes to come back (checkpoint load + reordered prepare + WAL
// replay) against the cold path it replaces (datagen + full prepare with
// the sampling reorder), plus the correctness gate that the recovered state
// answers bitwise-identically to the cold build of the same data version.
// The warm boot (including replay) must be faster than the cold prepare it
// skips.
type RestartResult struct {
	Rows         int
	IngestedRows int64
	Batches      int
	// ColdPrepareMS is datagen + Prepare from nothing (what every boot costs
	// without -data-dir).
	ColdPrepareMS float64
	// CheckpointMS/CheckpointBytes price the durability write side: the
	// checkpoint taken mid-ingest, which writes the rows ingested since
	// the bootstrap checkpoint.
	CheckpointMS    float64
	CheckpointBytes int64
	// WarmLoadMS is checkpoint load + verification + PrepareReordered;
	// WALReplayMS is redoing the logged tail through the ingest path;
	// WarmTotalMS is their sum — the durable boot's time-to-serving.
	WarmLoadMS  float64
	WALReplayMS float64
	WarmTotalMS float64
	// Bitwise records that a count over the warm-recovered engine matched
	// the ground truth of the recovered watermark exactly.
	Bitwise bool
}

// walSink adapts the WAL-logging Applier into an ingest.Sink, so a harness
// drives the same validate→log→apply path the live server uses.
type walSink struct{ ap *ingest.Applier }

func (s walSink) ApplyBatch(b *ingest.Batch, _ *dataset.Table) error {
	_, err := s.ap.Apply(b)
	return err
}

// Restart measures one durable serve/crash/warm-boot cycle in-process on
// the progressive engine — `idebench exp -name restart`: bootstrap a data
// directory, ingest ten batches of 1% of the base each (checkpointing
// halfway, so recovery exercises both the checkpoint and a live WAL tail),
// then time a recovery against a from-scratch cold prepare of the same
// base. It fails unless the recovered state is bitwise-correct and the warm
// boot beats the cold prepare it skips.
func Restart(cfg Config) (*RestartResult, error) {
	cfg = cfg.withDefaults()
	const batches = 10
	batchRows := cfg.Rows / 100
	dir, err := os.MkdirTemp("", "idebench-restart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &RestartResult{Rows: cfg.Rows, Batches: batches}
	s := engineSettings(cfg, cfg.Rows)

	// Serve side: the first boot of the directory builds cold and
	// bootstraps it; batches ingest through the WAL exactly like
	// `serve -data-dir`.
	b, err := core.Boot("progressive", dir, s)
	if err != nil {
		return nil, err
	}
	if b.Apply == nil {
		return nil, fmt.Errorf("experiments: progressive lost the Appender capability")
	}
	src, err := ingest.NewSource(cfg.Rows, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	h := ingest.NewHarness(b.DB, src, walSink{b.Apply})
	for i := 0; i < batches; i++ {
		if _, err := h.Ingest(batchRows); err != nil {
			return nil, err
		}
		if i == batches/2 {
			// Mid-run checkpoint: recovery below must stitch checkpoint +
			// WAL tail, not just one or the other.
			ckStart := time.Now()
			if err := b.Checkpoint(); err != nil {
				return nil, err
			}
			res.CheckpointMS = msSince(ckStart)
			res.CheckpointBytes = b.Store.Status().LastCheckpointBytes
		}
	}
	res.IngestedRows = h.IngestedRows()
	// Close without a final checkpoint, leaving the WAL tail to replay.
	if err := b.Store.Close(); err != nil {
		return nil, err
	}

	// Cold side: what a boot without durable state costs to merely reach the
	// base version (the warm path additionally reaches base+ingested).
	coldStart := time.Now()
	if _, err := core.Boot("progressive", "", s); err != nil {
		return nil, err
	}
	res.ColdPrepareMS = msSince(coldStart)

	// Warm side: recover the directory, adopt the checkpoint's own order,
	// redo the WAL tail.
	warmStart := time.Now()
	warm, err := core.Boot("progressive", dir, s)
	if err != nil {
		return nil, err
	}
	warmMS := msSince(warmStart)
	if err := warm.Store.Close(); err != nil {
		return nil, err
	}
	if !warm.Info.Recovered {
		return nil, fmt.Errorf("experiments: restart: no checkpoint recovered")
	}
	res.WALReplayMS = float64(warm.ReplayTime) / float64(time.Millisecond)
	res.WarmLoadMS = warmMS - res.WALReplayMS
	res.WarmTotalMS = warmMS
	app := warm.Engine.(engine.Appender)
	if got, want := app.Watermark(), h.Watermark(); got != want {
		return nil, fmt.Errorf("experiments: restart: replayed watermark %d, want %d", got, want)
	}

	// Correctness gate: the warm-recovered engine answers like a cold exact
	// scan of the same data version.
	q, probe, err := countToDone(warm.Engine, b.DB.Fact.Name)
	if err == nil {
		err = checkQuiesced(q, probe, app, h)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: restart bitwise check: %w", err)
	}
	res.Bitwise = true

	fmt.Fprintln(cfg.Out, "=== Warm restart: checkpoint load + WAL replay vs cold datagen + prepare ===")
	fmt.Fprintf(cfg.Out, "restart %d+%d rows: cold prepare %.1fms vs warm %.1fms (load %.1fms + replay %.1fms of %d batches), checkpoint %.1fms/%dB, bitwise=%v\n",
		res.Rows, res.IngestedRows, res.ColdPrepareMS, res.WarmTotalMS, res.WarmLoadMS, res.WALReplayMS, res.Batches, res.CheckpointMS, res.CheckpointBytes, res.Bitwise)
	if res.WarmTotalMS >= res.ColdPrepareMS {
		return res, fmt.Errorf("experiments: restart: warm boot %.1fms is not faster than cold prepare %.1fms", res.WarmTotalMS, res.ColdPrepareMS)
	}
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
