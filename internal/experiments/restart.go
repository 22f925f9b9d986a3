package experiments

import (
	"fmt"
	"os"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
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
	// CheckpointMS/CheckpointBytes price the durability write side.
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

	// Serve side: cold-build the base, bootstrap the durable directory, and
	// ingest through the WAL exactly like `serve -data-dir`.
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := core.DefaultSettings()
	s.DataSize = cfg.Rows
	s.Seed = cfg.Seed
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		return nil, err
	}
	caps := engine.CapabilitiesOf(p.Engine)
	vs := caps.ViewSnapshotter
	if vs == nil {
		return nil, fmt.Errorf("experiments: progressive lost the ViewSnapshotter capability")
	}
	meta := durable.Meta{Engine: "progressive", Seed: cfg.Seed, BaseRows: int64(cfg.Rows)}
	st, err := durable.Open(dir, durable.Options{Meta: meta})
	if err != nil {
		return nil, err
	}
	ckStart := time.Now()
	vdb, perm := vs.SnapshotView()
	if err := st.Bootstrap(vdb, perm); err != nil {
		return nil, err
	}
	res.CheckpointMS = msSince(ckStart)
	res.CheckpointBytes = st.Status().LastCheckpointBytes

	app := caps.Appender
	if app == nil {
		return nil, fmt.Errorf("experiments: progressive lost the Appender capability")
	}
	ap := ingest.NewApplier(db, app)
	ap.SetLog(st.LogBatch)
	src, err := ingest.NewSource(cfg.Rows, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	h := ingest.NewHarness(db, src, walSink{ap})
	for i := 0; i < batches; i++ {
		if _, err := h.Ingest(batchRows); err != nil {
			return nil, err
		}
		if i == batches/2 {
			// Mid-run checkpoint: recovery below must stitch checkpoint +
			// WAL tail, not just one or the other.
			cdb, cperm := vs.SnapshotView()
			if err := st.Checkpoint(cdb, cperm); err != nil {
				return nil, err
			}
		}
	}
	res.IngestedRows = h.IngestedRows()
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Cold side: what a boot without durable state costs to merely reach the
	// base version (the warm path additionally reaches base+ingested).
	coldStart := time.Now()
	coldDB, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := core.Prepare("progressive", coldDB, s); err != nil {
		return nil, err
	}
	res.ColdPrepareMS = msSince(coldStart)

	// Warm side: recover the directory, adopt the checkpoint's own order,
	// redo the WAL tail.
	warmStart := time.Now()
	st2, err := durable.Open(dir, durable.Options{Meta: meta})
	if err != nil {
		return nil, err
	}
	rec, err := st2.Recover()
	if err != nil {
		return nil, err
	}
	if rec.Checkpoint == nil {
		return nil, fmt.Errorf("experiments: restart: no checkpoint recovered")
	}
	eng2, err := core.NewEngine("progressive")
	if err != nil {
		return nil, err
	}
	caps2 := engine.CapabilitiesOf(eng2)
	rp := caps2.ReorderedPreparer
	if rp == nil {
		return nil, fmt.Errorf("experiments: progressive lost the ReorderedPreparer capability")
	}
	eopts := engine.Options{Confidence: s.Confidence, Seed: s.Seed}
	if err := rp.PrepareReordered(rec.Checkpoint.DB, rec.Checkpoint.Perm, eopts); err != nil {
		return nil, err
	}
	res.WarmLoadMS = msSince(warmStart)

	replayStart := time.Now()
	app2 := caps2.Appender
	if app2 == nil {
		return nil, fmt.Errorf("experiments: progressive lost the Appender capability")
	}
	ap2 := ingest.NewApplier(rec.Checkpoint.DB, app2)
	for _, b := range rec.Batches {
		if _, err := ap2.Apply(b); err != nil {
			return nil, fmt.Errorf("experiments: wal replay: %w", err)
		}
	}
	res.WALReplayMS = msSince(replayStart)
	res.WarmTotalMS = res.WarmLoadMS + res.WALReplayMS
	if err := st2.Close(); err != nil {
		return nil, err
	}
	if got, want := app2.Watermark(), h.Watermark(); got != want {
		return nil, fmt.Errorf("experiments: restart: replayed watermark %d, want %d", got, want)
	}

	// Correctness gate: the warm-recovered engine answers like a cold exact
	// scan of the same data version.
	q, probe, err := countToDone(eng2, db.Fact.Name)
	if err == nil {
		err = checkQuiesced(q, probe, app2, h)
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
