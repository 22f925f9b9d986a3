package core

import (
	"fmt"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
)

// Booted is an engine brought up by Boot, ready to serve.
type Booted struct {
	Engine engine.Engine
	// DB is the database the engine was prepared on: the recovered
	// checkpoint's on a warm boot, the freshly built one otherwise.
	DB *dataset.Database
	// Store is the open data directory; nil when Boot ran without one.
	Store *durable.Store
	// Apply is the engine's ingest path, write-ahead logged to Store when
	// there is one; nil when the engine cannot append.
	Apply *ingest.Applier
	// Info is what recovery found; zero on a cold boot.
	Info durable.RecoveryInfo
	// PrepTime is the engine's data preparation; ReplayTime is the WAL
	// tail's redo through Apply (zero on a cold boot).
	PrepTime, ReplayTime time.Duration
}

// Boot brings the named engine up under s. Without a data directory (dir
// empty) it builds the dataset and prepares cold. With one, a directory
// holding a checkpoint boots warm: the engine prepares from the checkpoint
// — adopting its storage order when the engine is an
// engine.ReorderedPreparer, which skips datagen and the sampling reorder —
// and the WAL tail is redone through the ingest path, ending at exactly the
// recovered watermark. A fresh directory boots cold and is bootstrapped
// with a checkpoint of the prepared base, so every later boot is warm. On a
// durable boot Apply logs (and fsyncs) each batch before the engine absorbs
// it.
func Boot(name, dir string, s Settings) (b *Booted, err error) {
	if dir == "" {
		return bootCold(name, s)
	}
	st, err := durable.Open(dir, durable.Options{Meta: durable.Meta{
		Engine:   name,
		Seed:     s.Seed,
		BaseRows: int64(s.DataSize),
	}})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	rec, err := st.Recover()
	if err != nil {
		return nil, err
	}
	if rec.Checkpoint == nil {
		if b, err = bootCold(name, s); err != nil {
			return nil, err
		}
		// Checkpoint the prepared base in the engine's own storage order
		// when it exposes one.
		bdb, perm := b.DB, []uint32(nil)
		if vs, ok := b.Engine.(engine.ViewSnapshotter); ok {
			bdb, perm = vs.SnapshotView()
		}
		if err := st.Bootstrap(bdb, perm); err != nil {
			return nil, err
		}
	} else {
		if b, err = bootWarm(name, rec, s); err != nil {
			return nil, err
		}
	}
	b.Store = st
	if b.Apply != nil {
		b.Apply.SetLog(st.LogBatch)
	}
	return b, nil
}

// bootCold builds the dataset and prepares the named engine on it.
func bootCold(name string, s Settings) (*Booted, error) {
	db, err := BuildData(s.DataSize, s.UseJoins, s.Seed)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(name, db, s)
	if err != nil {
		return nil, err
	}
	b := &Booted{Engine: p.Engine, DB: db, PrepTime: p.PrepTime}
	if app, ok := b.Engine.(engine.Appender); ok {
		b.Apply = ingest.NewApplier(db, app)
	}
	return b, nil
}

// bootWarm prepares the named engine from a recovered checkpoint and
// replays the WAL tail.
func bootWarm(name string, rec *durable.Recovery, s Settings) (*Booted, error) {
	eng, err := NewEngine(name)
	if err != nil {
		return nil, err
	}
	b := &Booted{Engine: eng, DB: rec.Checkpoint.DB, Info: rec.Info}
	opts := engine.Options{Confidence: s.Confidence, Seed: s.Seed}
	start := time.Now()
	if rp, ok := eng.(engine.ReorderedPreparer); ok {
		err = rp.PrepareReordered(b.DB, rec.Checkpoint.Perm, opts)
	} else {
		err = eng.Prepare(b.DB, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", name, err)
	}
	b.PrepTime = time.Since(start)
	app, ok := eng.(engine.Appender)
	if !ok {
		if len(rec.Batches) > 0 {
			return nil, fmt.Errorf("core: %d WAL batches to replay but engine %s cannot append", len(rec.Batches), name)
		}
		return b, nil
	}
	b.Apply = ingest.NewApplier(b.DB, app)
	start = time.Now()
	for _, batch := range rec.Batches {
		if _, err := b.Apply.Apply(batch); err != nil {
			return nil, fmt.Errorf("core: wal replay: %w", err)
		}
	}
	b.ReplayTime = time.Since(start)
	if got := app.Watermark(); got != rec.Info.Watermark {
		return nil, fmt.Errorf("core: wal replay ended at watermark %d, recovery expected %d", got, rec.Info.Watermark)
	}
	return b, nil
}

// Checkpoint writes a checkpoint of the engine's current view to Store. It
// is a no-op for engines without the ViewSnapshotter capability.
func (b *Booted) Checkpoint() error {
	vs, ok := b.Engine.(engine.ViewSnapshotter)
	if !ok {
		return nil
	}
	return b.Store.Checkpoint(vs.SnapshotView())
}
