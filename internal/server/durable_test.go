package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"idebench/internal/durable"
)

// fakeDurable implements Durability for serving-layer tests.
type fakeDurable struct {
	status  durable.Status
	flushes atomic.Int64
}

func (f *fakeDurable) Status() durable.Status { return f.status }
func (f *fakeDurable) Flush() error           { f.flushes.Add(1); return nil }

// recoveredStatus is a warm-boot status with every field set.
func recoveredStatus() durable.Status {
	return durable.Status{
		RecoveryInfo: durable.RecoveryInfo{
			Recovered:         true,
			CheckpointVersion: 40_000,
			ReplayedBatches:   3,
			ReplayedRows:      1_500,
			TruncatedTail:     true,
			Watermark:         41_500,
		},
		WALBytes:              12_345,
		Checkpoints:           2,
		LastCheckpointVersion: 40_000,
	}
}

// TestHealthzDurableFields: with a durability backend wired in, /healthz
// reports its status verbatim as the "durable" block, and a drain flushes
// the log exactly once as its final step.
func TestHealthzDurableFields(t *testing.T) {
	fd := &fakeDurable{status: recoveredStatus()}
	f := newFixture(t, Options{Durable: fd})

	h, _ := getHealth(t, f.hsrv.URL)
	if h.Durable == nil || *h.Durable != fd.status {
		t.Fatalf("durable status not faithfully surfaced: %+v", h.Durable)
	}
	// The live watermark (the single liveWatermark() source) still reports
	// the engine's absorbed rows.
	if h.Watermark != int64(f.db.Fact.NumRows()) {
		t.Fatalf("watermark %d, want %d", h.Watermark, f.db.Fact.NumRows())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fd.flushes.Load(); got != 1 {
		t.Fatalf("drain flushed the durable log %d times, want 1", got)
	}
}

// TestHealthzNotDurable: without a backend the document carries no
// "durable" block at all.
func TestHealthzNotDurable(t *testing.T) {
	f := newFixture(t, Options{})
	h, raw := getHealth(t, f.hsrv.URL)
	if _, ok := raw["durable"]; ok || h.Durable != nil {
		t.Fatalf("non-durable server claims durability: %s", raw["durable"])
	}
}
