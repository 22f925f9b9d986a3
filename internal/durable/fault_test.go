package durable_test

import (
	"errors"
	"path/filepath"
	"testing"

	"idebench/internal/durable"
	"idebench/internal/ingest"
)

// TestLogBatchFsyncFailure: a failed fsync means the record may not be on
// disk, so the commit must be rejected and the watermark must not move —
// the serving layer then never applies or acks the batch. After the fault
// clears, logging resumes, and recovery sees exactly the committed
// batches.
func TestLogBatchFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	st := openTestStore(t, dir, durable.Options{FS: ffs})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 3, 200)
	if err := st.LogBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	wm := st.Watermark()

	ffs.FailNextSyncs(1)
	if err := st.LogBatch(batches[1]); !errors.Is(err, durable.ErrSyncFailed) {
		t.Fatalf("want injected fsync failure, got %v", err)
	}
	if got := st.Watermark(); got != wm {
		t.Fatalf("failed commit moved the watermark: %d -> %d", wm, got)
	}

	// Fault cleared: the same batch commits cleanly (the short-lived
	// partial write was rolled back by truncation).
	if err := st.LogBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.LogBatch(batches[2]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 3 || rec.Info.TruncatedTail {
		t.Fatalf("recovered %d batches (truncated=%v), want 3 clean", len(rec.Batches), rec.Info.TruncatedTail)
	}
}

// TestLogBatchShortWrite: ENOSPC mid-record must reject the commit, roll
// the partial bytes back, and keep the log usable once space returns.
func TestLogBatchShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	st := openTestStore(t, dir, durable.Options{FS: ffs})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 200)
	if err := st.LogBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	wm := st.Watermark()

	ffs.SetWriteBudget(10) // next record lands 10 bytes short of nothing
	if err := st.LogBatch(batches[1]); !errors.Is(err, durable.ErrNoSpace) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
	if got := st.Watermark(); got != wm {
		t.Fatalf("failed commit moved the watermark: %d -> %d", wm, got)
	}
	ffs.SetWriteBudget(-1)
	if err := st.LogBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 || rec.Info.TruncatedTail {
		t.Fatalf("recovered %d batches (truncated=%v), want 2 clean", len(rec.Batches), rec.Info.TruncatedTail)
	}
}

// TestCheckpointENOSPC: running out of disk mid-checkpoint must abort the
// temp directory and leave the previous checkpoint serving — durability
// degrades to a longer WAL replay, never to a corrupt checkpoint.
func TestCheckpointENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{FS: ffs})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 300)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	grown := growDB(t, db, batches)

	ffs.SetWriteBudget(1 << 12) // enough to start the fact segment, not finish the checkpoint
	if err := st.Checkpoint(grown, nil); err == nil {
		t.Fatal("checkpoint under ENOSPC must fail")
	}
	ffs.SetWriteBudget(-1)
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Info.FellBack {
		t.Fatal("aborted checkpoint must not be visible at all")
	}
	if rec.Checkpoint.Version() != testBaseRows {
		t.Fatalf("recovered checkpoint %d, want the intact %d", rec.Checkpoint.Version(), testBaseRows)
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(rec.Batches))
	}
}

// TestCheckpointRenameFailure: a crash at the publish step (modeled as a
// failing rename) leaves only temp litter, which the next checkpoint
// clobbers and recovery never considers.
func TestCheckpointRenameFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{FS: ffs})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	b := testBatches(t, 1, 300)[0]
	if err := st.LogBatch(b); err != nil {
		t.Fatal(err)
	}
	grown := growDB(t, db, []*ingest.Batch{b})

	ffs.FailNextRenames(1)
	if err := st.Checkpoint(grown, nil); !errors.Is(err, durable.ErrRenameFailed) {
		t.Fatalf("want injected rename failure, got %v", err)
	}
	// Retry succeeds and recovery then uses the new checkpoint.
	if err := st.Checkpoint(grown, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Version() != int64(grown.Fact.NumRows()) {
		t.Fatalf("recovered checkpoint %d, want %d", rec.Checkpoint.Version(), grown.Fact.NumRows())
	}
	if len(rec.Batches) != 0 {
		t.Fatalf("replayed %d batches, want 0 (checkpoint covers the log)", len(rec.Batches))
	}
}

// TestCheckpointCrashBetweenSegmentAndManifest: the tail segment lands and
// then the manifest's publishing rename fails — a crash between the two
// commit steps. The segment is an orphan and nothing else: the previous
// checkpoint recovers bitwise with the WAL replaying over it, and the next
// checkpoint's prune sweeps the orphan.
func TestCheckpointCrashBetweenSegmentAndManifest(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(durable.OSFS{})
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{FS: ffs})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 300)
	if err := st.LogBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	grown := growDB(t, db, batches[:1])
	before := segmentFiles(t, dir)

	ffs.FailNextRenamesInto(filepath.Join(dir, "checkpoints"), 1)
	if err := st.Checkpoint(grown, nil); !errors.Is(err, durable.ErrRenameFailed) {
		t.Fatalf("want the injected manifest rename failure, got %v", err)
	}
	var orphan string
	for name := range segmentFiles(t, dir) {
		if !before[name] {
			if orphan != "" {
				t.Fatalf("more than one new segment: %s and %s", orphan, name)
			}
			orphan = name
		}
	}
	if orphan == "" {
		t.Fatal("the tail segment did not land before the manifest step")
	}
	if ms := checkpointManifests(t, dir); len(ms) != 1 {
		t.Fatalf("%d committed checkpoints, want only the bootstrap", len(ms))
	}

	rec, err := openTestStore(t, dir, durable.Options{}).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Info.FellBack || rec.Checkpoint.Version() != testBaseRows || len(rec.Batches) != 1 {
		t.Fatalf("recovered checkpoint %d (fell back %v) with %d batches, want the bootstrap and 1",
			rec.Checkpoint.Version(), rec.Info.FellBack, len(rec.Batches))
	}
	assertTableBitwise(t, rec.Checkpoint.DB.Fact, db.Fact)

	// The store carries on: the next checkpoint extends the bootstrap and
	// its prune sweeps the orphan.
	if err := st.LogBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(growDB(t, db, batches), nil); err != nil {
		t.Fatal(err)
	}
	if segmentFiles(t, dir)[orphan] {
		t.Fatal("the next checkpoint left the orphan segment behind")
	}
}
