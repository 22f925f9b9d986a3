package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// TestBootColdThenWarm is the durable boot's in-process wall: a fresh
// directory boots cold and is bootstrapped, three batches go through the
// write-ahead apply path, and a second boot of the same directory recovers
// warm at exactly the logged watermark — having replayed those three
// batches — and answers a COUNT bitwise equal to the ground truth of that
// data version.
func TestBootColdThenWarm(t *testing.T) {
	const (
		rows      = 20_000
		batchRows = 300
	)
	s := DefaultSettings()
	s.DataSize = rows
	dir := t.TempDir()

	cold, err := Boot("progressive", dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Info.Recovered || cold.Store.Status().Checkpoints != 1 || cold.Store.Watermark() != rows {
		t.Fatalf("cold boot did not bootstrap: info %+v, status %+v", cold.Info, cold.Store.Status())
	}
	src, err := ingest.NewSource(rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*ingest.Batch
	for i := 0; i < 3; i++ {
		b, err := src.Next(batchRows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Apply.Apply(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	const want = rows + 3*batchRows
	if got := cold.Store.Watermark(); got != want {
		t.Fatalf("WAL ends at %d after three applies, want %d", got, want)
	}
	if err := cold.Store.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := Boot("progressive", dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Store.Close()
	if info := warm.Info; !info.Recovered || info.ReplayedBatches != 3 ||
		info.ReplayedRows != 3*batchRows || info.Watermark != want || info.CheckpointVersion != rows {
		t.Fatalf("warm boot recovery info %+v, want 3 batches replayed onto checkpoint v%d up to %d", info, rows, want)
	}

	// Ground truth: an independent lineage over a fresh build, fed the
	// same batches.
	base, err := BuildData(rows, false, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	h := ingest.NewHarness(base, ingest.NewFixedSource(batches...))
	for range batches {
		if _, err := h.Ingest(batchRows); err != nil {
			t.Fatal(err)
		}
	}
	q := &query.Query{
		VizName: "boot_count", Table: base.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	gt, err := h.TruthAt(q, want)
	if err != nil {
		t.Fatal(err)
	}
	sess := warm.Engine.OpenSession()
	defer sess.Close()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hdl.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("count over the warm-booted engine did not complete")
	}
	res := hdl.Snapshot()
	if res == nil || !res.Complete || res.Watermark != want {
		t.Fatalf("warm-booted count incomplete or at the wrong version: %+v", res)
	}
	if len(res.Bins) != len(gt.Bins) {
		t.Fatalf("warm-booted count has %d bins, ground truth %d", len(res.Bins), len(gt.Bins))
	}
	for k, wv := range gt.Bins {
		gv, ok := res.Bins[k]
		if !ok || math.Float64bits(gv.Values[0]) != math.Float64bits(wv.Values[0]) {
			t.Fatalf("bin %v: warm boot %v, ground truth exactly %v", k, gv, wv.Values[0])
		}
	}
}

// TestBootRefusesReplayWithoutAppender: a WAL tail can only be redone by an
// engine that appends; booting one that cannot must fail, not serve the
// checkpoint as if the logged batches never happened.
func TestBootRefusesReplayWithoutAppender(t *testing.T) {
	const rows = 5_000
	s := DefaultSettings()
	s.DataSize = rows
	dir := t.TempDir()

	db, err := BuildData(rows, false, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(dir, durable.Options{Meta: durable.Meta{Engine: "sqldb", Seed: s.Seed, BaseRows: rows}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	src, err := ingest.NewSource(rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Boot("sqldb", dir, s); err == nil || !strings.Contains(err.Error(), "cannot append") {
		t.Fatalf("boot with a WAL tail and no appender: err %v, want a refusal", err)
	}
}
