package server

import (
	"testing"
	"time"

	"idebench/internal/ingest"
)

// TestIngestFrameBroadcast feeds a batch through one connection and asserts
// (a) the server applies it to the engine, (b) every live session — feeder
// and bystander alike — receives the watermark broadcast, and (c) a fresh
// query over the wire answers for the grown table with the new watermark.
func TestIngestFrameBroadcast(t *testing.T) {
	f := newFixture(t, Options{})
	f.srv.opts.Apply = ingest.NewApplier(f.db, f.eng).Apply

	feeder, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	bystander, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	base := int64(f.db.Fact.NumRows())
	const added = 1200
	batch := ingest.FromTable(f.db.Fact, 0, added)
	if err := feeder.Ingest(batch); err != nil {
		t.Fatal(err)
	}

	want := base + added
	waitFor(t, 10*time.Second, "feeder watermark broadcast", func() bool {
		return feeder.Watermark() == want
	})
	waitFor(t, 10*time.Second, "bystander watermark broadcast", func() bool {
		return bystander.Watermark() == want
	})
	if feeder.Stats().Ingest.Load() == 0 || bystander.Stats().Ingest.Load() == 0 {
		t.Fatal("ingest frames not counted")
	}
	if got := f.eng.Watermark(); got != want {
		t.Fatalf("engine watermark %d, want %d", got, want)
	}

	// A fresh query over the wire must cover the grown table.
	q := firstQuery(t, f.flows[0])
	sess := bystander.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("query over grown table did not finish")
	}
	res := h.Snapshot()
	if res == nil {
		t.Fatal("no result")
	}
	if res.Watermark != want || res.TotalRows != want {
		t.Fatalf("result watermark/total = %d/%d, want %d", res.Watermark, res.TotalRows, want)
	}
}

// TestIngestRejectedWithoutApplier pins the error path: a server whose
// engine has no append capability answers ingest frames with an error frame
// and poisons the session like any other engine-side rejection.
func TestIngestRejectedWithoutApplier(t *testing.T) {
	f := newFixture(t, Options{}) // no Apply configured
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if err := rem.Ingest(ingest.FromTable(f.db.Fact, 0, 10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "error frame", func() bool {
		return rem.Stats().Errors.Load() > 0
	})
	if rem.Watermark() != int64(f.db.Fact.NumRows()) {
		t.Fatal("watermark moved without an applier")
	}
	// The rejection must be surfaced, not swallowed: Err reports it and the
	// next Ingest refuses instead of pumping batches into a void.
	if rem.Err() == nil {
		t.Fatal("server rejection not surfaced via Err")
	}
	if err := rem.Ingest(ingest.FromTable(f.db.Fact, 0, 10)); err == nil {
		t.Fatal("Ingest after a server rejection should fail")
	}
}
