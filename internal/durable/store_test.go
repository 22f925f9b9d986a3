package durable_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/ingest"
)

const (
	testSeed     = int64(42)
	testBaseRows = 3000
)

func testMeta() durable.Meta {
	return durable.Meta{Engine: "testeng", Seed: testSeed, BaseRows: testBaseRows}
}

func testDB(t testing.TB) *dataset.Database {
	t.Helper()
	db, err := core.BuildData(testBaseRows, false, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testBatches(t testing.TB, n, rows int) []*ingest.Batch {
	t.Helper()
	src, err := ingest.NewSource(2000, testSeed+23)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ingest.Batch, n)
	for i := range out {
		if out[i], err = src.Next(rows); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func openTestStore(t testing.TB, dir string, o durable.Options) *durable.Store {
	t.Helper()
	if o.Meta == (durable.Meta{}) {
		o.Meta = testMeta()
	}
	st, err := durable.Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// growDB appends batches to db's fact lineage the way the serving path
// does, returning the grown immutable view. The WAL in these tests is fed
// the same batches, so checkpoint + WAL describe one consistent history.
func growDB(t testing.TB, db *dataset.Database, batches []*ingest.Batch) *dataset.Database {
	t.Helper()
	app := dataset.NewTableAppender(db.Fact, false)
	fact := db.Fact
	for _, b := range batches {
		rows, err := ingest.Materialize(db, b)
		if err != nil {
			t.Fatal(err)
		}
		if fact, err = app.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	return &dataset.Database{Fact: fact, Dimensions: db.Dimensions}
}

func mustEncode(t testing.TB, b *ingest.Batch) []byte {
	t.Helper()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStoreBootstrapLogRecoverReplay(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	batches := testBatches(t, 3, 500)

	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	wantWM := int64(testBaseRows + 3*500)
	if got := st.Watermark(); got != wantWM {
		t.Fatalf("watermark %d, want %d", got, wantWM)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil {
		t.Fatal("no checkpoint recovered")
	}
	if rec.Checkpoint.Version() != testBaseRows {
		t.Fatalf("checkpoint version %d, want %d", rec.Checkpoint.Version(), testBaseRows)
	}
	if rec.Checkpoint.DB.Fact.NumRows() != testBaseRows {
		t.Fatalf("checkpoint fact rows %d, want %d", rec.Checkpoint.DB.Fact.NumRows(), testBaseRows)
	}
	if len(rec.Batches) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(rec.Batches), len(batches))
	}
	for i, b := range rec.Batches {
		if !bytes.Equal(mustEncode(t, b), mustEncode(t, batches[i])) {
			t.Fatalf("replayed batch %d differs from logged batch", i)
		}
	}
	info := rec.Info
	if !info.Recovered || info.FellBack || info.TruncatedTail {
		t.Fatalf("unexpected recovery info: %+v", info)
	}
	if info.Watermark != wantWM || info.ReplayedRows != 1500 || info.ReplayedBatches != 3 {
		t.Fatalf("recovery info: %+v", info)
	}
	// Appends continue at the recovered version.
	extra := testBatches(t, 1, 500)[0]
	if err := st2.LogBatch(extra); err != nil {
		t.Fatal(err)
	}
	if got := st2.Watermark(); got != wantWM+500 {
		t.Fatalf("post-recovery watermark %d, want %d", got, wantWM+500)
	}
	// The recovered checkpoint's decoded database must be usable for
	// materializing further batches (shared dictionaries, FK ranges).
	if _, err := ingest.Materialize(rec.Checkpoint.DB, extra); err != nil {
		t.Fatalf("materialize against recovered db: %v", err)
	}
}

// TestRecoverEmptyWAL is the first recovery edge case: a checkpoint with
// no WAL records at all recovers to exactly the checkpoint version.
func TestRecoverEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || len(rec.Batches) != 0 {
		t.Fatalf("want bare checkpoint, got %d batches", len(rec.Batches))
	}
	if rec.Info.Watermark != testBaseRows || rec.Info.TruncatedTail {
		t.Fatalf("info: %+v", rec.Info)
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	st := openTestStore(t, t.TempDir(), durable.Options{})
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || rec.Info.Recovered {
		t.Fatalf("fresh dir must recover to nothing, got %+v", rec.Info)
	}
}

// activeSegment finds the newest WAL segment file for direct corruption.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no wal segment found")
	}
	return filepath.Join(dir, "wal", last)
}

// TestRecoverTornFinalRecord: a crash mid-append leaves a half-written
// final record; recovery must truncate it and recover the prefix.
func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(t, 3, 400) {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the tail: chop off the last 5 bytes of the final record.
	seg := activeSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Info.TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("replayed %d batches, want 2 (torn third must not apply)", len(rec.Batches))
	}
	if want := int64(testBaseRows + 2*400); rec.Info.Watermark != want {
		t.Fatalf("watermark %d, want batch-aligned %d", rec.Info.Watermark, want)
	}
	// The truncation must be durable: a second recovery sees a clean log.
	st2.Close()
	st3 := openTestStore(t, dir, durable.Options{})
	rec3, err := st3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Info.TruncatedTail || len(rec3.Batches) != 2 {
		t.Fatalf("second recovery: truncated=%v batches=%d", rec3.Info.TruncatedTail, len(rec3.Batches))
	}
}

// TestRecoverCorruptCRCMidSegment: a bit flip in the middle of the log.
// Everything before the flip replays; the flipped record and everything
// after it — even records with valid CRCs — is discarded, because a log
// with a hole in it cannot vouch for anything beyond the hole.
func TestRecoverCorruptCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 4, 300)
	var offsets []int64
	off := int64(0)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
		data, _ := durable.EncodeWALRecord(0, b)
		off += int64(len(data))
	}
	st.Close()

	// Flip one byte inside the second record's payload.
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+20] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Info.TruncatedTail {
		t.Fatal("mid-segment corruption not reported")
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("replayed %d batches, want 1 (nothing past the corruption)", len(rec.Batches))
	}
	if want := int64(testBaseRows + 300); rec.Info.Watermark != want {
		t.Fatalf("watermark %d, want %d", rec.Info.Watermark, want)
	}
}

// flipWALRecordByte flips the byte at offset inside the frame of the
// idx-th WAL record of dir, counting across segments in log order.
func flipWALRecordByte(t *testing.T, dir string, idx, offset int) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, "wal", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+8 <= len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
			if idx > 0 {
				idx--
				continue
			}
			data[off+offset] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("the wal holds no record %d", idx)
}

// TestAckAfterCoveredCorruptionSurvives: a corrupt record the checkpoint
// already covers makes recovery end below the checkpoint. A batch acked
// after that recovery must survive the next one, whether the log is one
// segment or one segment per record: appends may not chain the checkpoint
// version onto a segment that ends earlier.
func TestAckAfterCoveredCorruptionSurvives(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int64
	}{
		{"one_segment", 0},
		{"segment_per_record", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := testDB(t)
			st := openTestStore(t, dir, durable.Options{SegmentBytes: tc.segBytes})
			if err := st.Bootstrap(db, nil); err != nil {
				t.Fatal(err)
			}
			batches := testBatches(t, 5, 300)
			for _, b := range batches[:4] {
				if err := st.LogBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Checkpoint(growDB(t, db, batches[:4]), nil); err != nil {
				t.Fatal(err)
			}
			st.Close()
			flipWALRecordByte(t, dir, 1, 20)

			st2 := openTestStore(t, dir, durable.Options{SegmentBytes: tc.segBytes})
			rec, err := st2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(testBaseRows + 4*300); rec.Info.Watermark != want || len(rec.Batches) != 0 {
				t.Fatalf("first recovery: watermark %d with %d batches, want the checkpoint's %d and none",
					rec.Info.Watermark, len(rec.Batches), want)
			}
			if err := st2.LogBatch(batches[4]); err != nil {
				t.Fatal(err)
			}
			st2.Close()

			rec, err = openTestStore(t, dir, durable.Options{SegmentBytes: tc.segBytes}).Recover()
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if want := int64(testBaseRows + 5*300); rec.Info.Watermark != want || rec.Info.TruncatedTail || len(rec.Batches) != 1 {
				t.Fatalf("second recovery: watermark %d (truncated %v) with %d batches, want %d with the acked batch",
					rec.Info.Watermark, rec.Info.TruncatedTail, len(rec.Batches), want)
			}
		})
	}
}

// TestRecoverCheckpointSegmentMissing: the newest checkpoint's manifest is
// present but its unique tail segment — the one fact segment the fallback
// does not share — is gone. Recovery must fall back to the previous
// checkpoint and reach the same watermark via a longer WAL replay — never
// serve the newest checkpoint partially.
func TestRecoverCheckpointSegmentMissing(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 250)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	grown := growDB(t, db, batches)
	if err := st.Checkpoint(grown, nil); err != nil {
		t.Fatal(err)
	}
	more := testBatches(t, 1, 250)[0]
	if err := st.LogBatch(more); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Delete the newest checkpoint's tail segment, keeping its manifest.
	ms := checkpointManifests(t, dir)
	if len(ms) != 2 || ms[1].Version != int64(grown.Fact.NumRows()) {
		t.Fatalf("want the bootstrap and the grown checkpoint, got %d", len(ms))
	}
	tail := ms[1].Segments[len(ms[1].Segments)-1]
	if tail.From != testBaseRows || slices.ContainsFunc(ms[0].Segments, func(s durable.ManifestSegment) bool { return s.SHA256 == tail.SHA256 }) {
		t.Fatalf("newest checkpoint's last segment %+v is not its unique tail", tail)
	}
	if err := os.Remove(segmentPath(dir, tail.SHA256)); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Info.FellBack {
		t.Fatal("fallback to previous checkpoint not reported")
	}
	if rec.Checkpoint.Version() != testBaseRows {
		t.Fatalf("recovered from checkpoint %d, want the older %d", rec.Checkpoint.Version(), testBaseRows)
	}
	// All three batches replay on top of the older checkpoint.
	if len(rec.Batches) != 3 {
		t.Fatalf("replayed %d batches, want 3", len(rec.Batches))
	}
	if want := int64(testBaseRows + 3*250); rec.Info.Watermark != want {
		t.Fatalf("watermark %d, want %d", rec.Info.Watermark, want)
	}
}

// TestRecoverSharedSegmentMissing: a segment both retained checkpoints
// share — the base — is gone. No fallback holds the data, so recovery must
// refuse, naming the segment, rather than serve either checkpoint.
func TestRecoverSharedSegmentMissing(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 250)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(growDB(t, db, batches), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	base := checkpointManifests(t, dir)[0].Segments[0]
	if base.Role != "fact" || base.From != 0 {
		t.Fatalf("bootstrap's first segment %+v is not the base", base)
	}
	if err := os.Remove(segmentPath(dir, base.SHA256)); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir, durable.Options{})
	_, err := st2.Recover()
	if err == nil || !strings.Contains(err.Error(), "no checkpoint verifies") || !strings.Contains(err.Error(), base.SHA256+".seg") {
		t.Fatalf("recovery without the shared base must refuse and name it, got %v", err)
	}
}

// TestRecoverWALGapRefused: a missing middle segment is not a torn tail —
// replaying past it would silently drop durable batches, so recovery must
// refuse outright.
func TestRecoverWALGapRefused(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{SegmentBytes: 1}) // every batch rotates
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(t, 3, 200) {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("expected one segment per batch, got %d", len(ents))
	}
	if err := os.Remove(filepath.Join(dir, "wal", ents[1].Name())); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	if _, err := st2.Recover(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("recovery over a WAL gap must fail, got %v", err)
	}
}

func TestRecoverMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir, durable.Options{Meta: durable.Meta{Engine: "testeng", Seed: testSeed + 1, BaseRows: testBaseRows}})
	if _, err := st2.Recover(); err == nil {
		t.Fatal("recovering with a different dataset seed must fail")
	}
}

// TestCheckpointPruning: old checkpoints beyond the retention count are
// dropped, WAL segments covered by the oldest retained checkpoint go with
// them, and a segment no retained checkpoint references — here the orphan
// of a checkpoint that crashed before its manifest — is swept while the
// base every checkpoint shares survives.
func TestCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{SegmentBytes: 1})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	base := checkpointManifests(t, dir)[0].Segments[0].SHA256
	orphan := strings.Repeat("0", 64) + ".seg"
	cur := db
	for i := 0; i < 4; i++ {
		if i == 3 {
			if err := os.WriteFile(filepath.Join(dir, "segments", orphan), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		bs := testBatches(t, 1, 100+i) // distinct sizes keep versions distinct
		if err := st.LogBatch(bs[0]); err != nil {
			t.Fatal(err)
		}
		cur = growDB(t, cur, bs)
		if err := st.Checkpoint(cur, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(ents))
	}
	segs := segmentFiles(t, dir)
	if segs[orphan] {
		t.Fatal("an unreferenced segment survived the prune")
	}
	if !segs[base+".seg"] {
		t.Fatal("the base the retained checkpoints share was pruned")
	}
	// Retained: the base and the four tails the newest lineage lists.
	if len(segs) != 5 {
		t.Fatalf("%d segment files after pruning, want 5: %v", len(segs), segs)
	}
	wal, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 1 {
		t.Fatalf("%d WAL segments after pruning, want only the one past the older retained checkpoint", len(wal))
	}
	// Recovery still works from the retained pair.
	st2 := openTestStore(t, dir, durable.Options{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Info.Watermark != int64(cur.Fact.NumRows()) {
		t.Fatalf("watermark %d, want %d", rec.Info.Watermark, cur.Fact.NumRows())
	}
}

// TestCheckpointNonExtendingViewRewrites: a view that does not extend the
// newest checkpoint — fewer rows, or a different row at the checkpoint's
// boundary — is written in full, never appended to a prefix it does not
// share, and recovers bitwise.
func TestCheckpointNonExtendingViewRewrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
	}{{"shorter", testBaseRows - 400}, {"different boundary row", testBaseRows + 400}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir, durable.Options{})
			if err := st.Bootstrap(testDB(t), nil); err != nil {
				t.Fatal(err)
			}
			other, err := core.BuildData(tc.rows, false, testSeed+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(other, nil); err != nil {
				t.Fatal(err)
			}
			st.Close()
			ms := checkpointManifests(t, dir)
			var newest durable.Manifest
			for _, m := range ms {
				if m.Version == int64(tc.rows) {
					newest = m
				}
			}
			if len(newest.Segments) != 1 || newest.Segments[0].From != 0 || newest.Segments[0].To != int64(tc.rows) {
				t.Fatalf("non-extending view written as %+v, want one fact segment [0, %d)", newest.Segments, tc.rows)
			}
			if tc.rows < testBaseRows {
				return // the bootstrap is newer by version; recovery picks it
			}
			rec, err := openTestStore(t, dir, durable.Options{}).Recover()
			if err != nil {
				t.Fatal(err)
			}
			assertTableBitwise(t, rec.Checkpoint.DB.Fact, other.Fact)
		})
	}
}

// TestAutoCheckpointCountsBytesSinceCheckpoint: the trigger counts WAL bytes
// logged since the newest checkpoint, not the WAL's size. After a
// checkpoint nothing fires — however many polls pass, and although the
// WAL still holds every record the fallback checkpoint needs — until
// walLimit more bytes are logged.
func TestAutoCheckpointCountsBytesSinceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 6, 200)
	rec, err := durable.EncodeWALRecord(0, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(rec)) * 3 / 2 // between one and two batches' records

	var mu sync.Mutex
	cur, logged, snaps := db, 0, 0
	logBatch := func() {
		mu.Lock()
		defer mu.Unlock()
		if err := st.LogBatch(batches[logged]); err != nil {
			t.Fatal(err)
		}
		cur = growDB(t, cur, batches[logged:logged+1])
		logged++
	}
	snapCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return snaps
	}
	stop := st.AutoCheckpoint(2*time.Millisecond, limit, func() (*dataset.Database, []uint32) {
		mu.Lock()
		defer mu.Unlock()
		snaps++
		return cur, nil
	}, func(err error) { t.Error(err) })
	defer stop()

	waitFor := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for snapCount() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d checkpoints fired, want %d", snapCount(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	quiet := func(want int) {
		t.Helper()
		time.Sleep(40 * time.Millisecond) // twenty polls
		if got := snapCount(); got != want {
			t.Fatalf("%d checkpoints fired, want %d", got, want)
		}
	}
	quiet(0)
	logBatch() // one batch: under the limit
	quiet(0)
	logBatch() // two: over it
	waitFor(1)
	quiet(1) // the WAL is over the limit, the bytes since the checkpoint are not
	if st.Status().WALBytes < limit {
		t.Fatalf("WAL holds %d bytes, want at least the limit %d for this test to mean anything", st.Status().WALBytes, limit)
	}
	logBatch()
	quiet(1)
	logBatch()
	waitFor(2)
	quiet(2)
	if got, want := st.Status().LastCheckpointVersion, int64(testBaseRows+4*200); got != want {
		t.Fatalf("last checkpoint at %d, want %d", got, want)
	}
}

// TestRecoverFormat1Refused: a data directory from the unsegmented format
// is refused outright — no fallback, no partial read — with an error that
// names the format.
func TestRecoverFormat1Refused(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoints", "ckpt-0000000000003000")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	old := `{"format": 1, "engine": "testeng", "seed": 42, "base_rows": 3000, "version": 3000,
  "files": [{"name": "fact.seg", "role": "fact", "bytes": 1, "crc32": 0}], "content_sha256": ""}`
	if err := os.WriteFile(filepath.Join(ckpt, "MANIFEST.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openTestStore(t, dir, durable.Options{}).Recover()
	if err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("recovering a format-1 directory must refuse, naming the format; got %v", err)
	}
}

// TestRecoverFormat2Refused: a directory written by the JSON-WAL format is
// refused outright, naming its format — its log would not decode, and a
// body that does not decode must never be mistaken for a torn tail.
func TestRecoverFormat2Refused(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ms := checkpointManifests(t, dir)
	mpath := filepath.Join(dir, "checkpoints", fmt.Sprintf("ckpt-%016d", ms[0].Version), "MANIFEST.json")
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), fmt.Sprintf(`"format": %d`, durable.FormatVersion), `"format": 2`, 1)
	if old == string(data) {
		t.Fatal("manifest carries no format field to rewrite")
	}
	if err := os.WriteFile(mpath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = openTestStore(t, dir, durable.Options{}).Recover()
	if err == nil || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("recovering a format-2 directory must refuse, naming the format; got %v", err)
	}
}

// TestRecoverForeignBatchRefusedUntouched: a CRC-valid WAL record whose
// batch is a JSON document — what a format-2 build logged — is not a torn
// tail. Recovery fails naming the format, and leaves every file of the
// directory byte-identical: truncating it would drop an acknowledged batch.
func TestRecoverForeignBatchRefusedUntouched(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(t, 2, 100) {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	body := binary.LittleEndian.AppendUint64(nil, uint64(testBaseRows+200))
	body = append(body, `{"table":"flights","rows":[["AA","SFO","CA","JFK","NY",1,2,3,4,5,6,7,8,9]]}`...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(append(data, frame...), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	_, err = openTestStore(t, dir, durable.Options{}).Recover()
	if err == nil || !strings.Contains(err.Error(), "JSON") || !errors.Is(err, ingest.ErrFormat) {
		t.Fatalf("recovering a log holding a JSON batch must refuse, naming the format; got %v", err)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused recovery changed the data directory")
	}
}

// dirContents maps every file under dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
