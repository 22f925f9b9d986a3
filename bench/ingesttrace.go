package main

import (
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
)

// batchBase keeps batch ids apart from query ids in span.Q.
const batchBase = int64(1) << 32

// ingestTrace decorates the write path's seams in a traced run: the
// engine's Append, the Applier's write-ahead hook and the checkpointer's
// view function. Applies are serialized by the Applier, so "the batch being
// applied" is one value.
type ingestTrace struct {
	rec *recorder
	cur atomic.Int64

	mu         sync.Mutex
	ckptStarts []time.Time
}

type tracedAppender struct {
	engine.Appender
	t *ingestTrace
}

func (a tracedAppender) Append(rows *dataset.Table) error {
	t0 := time.Now()
	err := a.Appender.Append(rows)
	a.t.rec.add("progressive.append", a.t.cur.Load(), t0, time.Now())
	return err
}

func (t *ingestTrace) decorate(app engine.Appender, log func(*ingest.Batch) error, snap func() (*dataset.Database, []uint32)) (
	engine.Appender, func(*ingest.Batch) error, func() (*dataset.Database, []uint32)) {
	tracedLog := func(b *ingest.Batch) error {
		t0 := time.Now()
		err := log(b)
		t.rec.add("durable.log_batch", t.cur.Load(), t0, time.Now())
		return err
	}
	tracedSnap := func() (*dataset.Database, []uint32) {
		t.mu.Lock()
		t.ckptStarts = append(t.ckptStarts, time.Now())
		t.mu.Unlock()
		return snap()
	}
	return tracedAppender{app, t}, tracedLog, tracedSnap
}
