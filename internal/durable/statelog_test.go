package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

type testEvent struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func appendEvents(t *testing.T, l *StateLog, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := l.Append("ev", testEvent{N: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func decodeEvents(t *testing.T, recs []StateRecord) []testEvent {
	t.Helper()
	out := make([]testEvent, 0, len(recs))
	for i, rec := range recs {
		if rec.Kind != "ev" {
			t.Fatalf("record %d: kind %q, want ev", i, rec.Kind)
		}
		var ev testEvent
		if err := json.Unmarshal(rec.Payload, &ev); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		out = append(out, ev)
	}
	return out
}

func TestStateLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Records()); got != 0 {
		t.Fatalf("fresh log has %d records", got)
	}
	appendEvents(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs := decodeEvents(t, l2.Records())
	if len(evs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.N != i {
			t.Fatalf("record %d: N=%d", i, ev.N)
		}
	}
	// Appending after recovery must extend, not clobber.
	appendEvents(t, l2, 10, 12)
	l2.Close()
	l3, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := len(l3.Records()); got != 12 {
		t.Fatalf("after extend: %d records, want 12", got)
	}
}

func TestStateLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 5)
	l.Close()

	// Simulate a mid-write crash: append garbage half-frame bytes.
	path := filepath.Join(dir, stateLogFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Read-only view reports the tear, keeps the file intact.
	recs, torn, err := ReadStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("ReadStateLog did not report the torn tail")
	}
	if len(recs) != 5 {
		t.Fatalf("ReadStateLog: %d records, want 5", len(recs))
	}
	if sz, _ := (OSFS{}).Size(path); sz == 0 {
		t.Fatal("read-only view emptied the file")
	}

	// Owning open truncates the tear and appends cleanly after it.
	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l2.Records()); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	appendEvents(t, l2, 5, 6)
	l2.Close()
	recs, torn, err = ReadStateLog(dir, nil)
	if err != nil || torn {
		t.Fatalf("after repair: torn=%v err=%v", torn, err)
	}
	if len(recs) != 6 {
		t.Fatalf("after repair: %d records, want 6", len(recs))
	}
}

func TestStateLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 20)
	snap, err := json.Marshal(testEvent{N: 99, S: "snapshot"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(StateRecord{Kind: "ev", Payload: snap}); err != nil {
		t.Fatal(err)
	}
	// Appends after a compaction extend the compacted log.
	appendEvents(t, l, 100, 101)
	l.Close()

	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs := decodeEvents(t, l2.Records())
	if len(evs) != 2 || evs[0].N != 99 || evs[0].S != "snapshot" || evs[1].N != 100 {
		t.Fatalf("after compact: %+v", evs)
	}
}

func TestStateLogFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	l, err := OpenStateLog(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 3)

	// Arm ENOSPC so the next append lands short; the log must roll it back.
	ffs.SetWriteBudget(4)
	if err := l.Append("ev", testEvent{N: 3}); err == nil {
		t.Fatal("append past the write budget succeeded")
	}
	ffs.SetWriteBudget(-1)

	// The next append goes through and recovery sees no half record.
	appendEvents(t, l, 3, 4)
	l.Close()
	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs := decodeEvents(t, l2.Records())
	if len(evs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.N != i {
			t.Fatalf("record %d: N=%d", i, ev.N)
		}
	}
}

func TestStateLogFailedSyncNotCommitted(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	l, err := OpenStateLog(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 2)
	ffs.FailNextSyncs(1)
	if err := l.Append("ev", testEvent{N: 2}); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	appendEvents(t, l, 2, 3)
	l.Close()
	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs := decodeEvents(t, l2.Records())
	if len(evs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(evs))
	}
}

func TestStateLogCompactFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	l, err := OpenStateLog(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 5)
	ffs.FailNextRenames(1)
	snap, _ := json.Marshal(testEvent{N: 99})
	if err := l.Compact(StateRecord{Kind: "ev", Payload: snap}); err == nil {
		t.Fatal("compact with failing rename succeeded")
	}
	l.Close()
	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(l2.Records()); got != 5 {
		t.Fatalf("old log lost: %d records, want 5", got)
	}
}

// failSyncDirFS fails the next SyncDir once it is armed; everything else
// passes through.
type failSyncDirFS struct {
	FS
	armed bool
}

func (f *failSyncDirFS) SyncDir(path string) error {
	if f.armed {
		f.armed = false
		return errors.New("injected directory fsync failure")
	}
	return f.FS.SyncDir(path)
}

// TestStateLogCompactSyncDirFailureKeepsSize: a compaction whose rename
// landed but whose directory fsync failed has still replaced the log, so
// later appends and rollbacks must count from the compacted size. With the
// old size kept, a rolled-back append truncated the file to that stale
// length — here cutting into the compacted records — and acknowledged
// records were lost on reopen.
func TestStateLogCompactSyncDirFailureKeepsSize(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	fs := &failSyncDirFS{FS: ffs}
	l, err := OpenStateLog(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 1)

	// The compacted log is larger than the one it replaces.
	var snap []StateRecord
	for i := 0; i < 4; i++ {
		p, err := json.Marshal(testEvent{N: 50 + i, S: strings.Repeat("x", 64)})
		if err != nil {
			t.Fatal(err)
		}
		snap = append(snap, StateRecord{Kind: "ev", Payload: p})
	}
	fs.armed = true
	if err := l.Compact(snap...); err == nil {
		t.Fatal("compact with a failing directory fsync succeeded")
	}
	appendEvents(t, l, 100, 101)

	// A short write is rolled back; the log must stay appendable after it.
	ffs.SetWriteBudget(4)
	if err := l.Append("ev", testEvent{N: 101}); err == nil {
		t.Fatal("append past the write budget succeeded")
	}
	ffs.SetWriteBudget(-1)
	appendEvents(t, l, 102, 103)
	l.Close()

	l2, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []int
	for _, ev := range decodeEvents(t, l2.Records()) {
		got = append(got, ev.N)
	}
	if want := []int{50, 51, 52, 53, 100, 102}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered records %v, want %v", got, want)
	}
}

// failReadFS fails every ReadFile with EIO; everything else passes through.
type failReadFS struct{ FS }

func (failReadFS) ReadFile(string) ([]byte, error) { return nil, syscall.EIO }

// TestStateLogReadErrorRefused: a journal that cannot be read is not an
// empty one. Opening it must fail and leave the file byte-identical, and
// the read-only view must fail rather than report no journal.
func TestStateLogReadErrorRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenStateLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, l, 0, 3)
	l.Close()
	path := filepath.Join(dir, stateLogFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if l, err := OpenStateLog(dir, failReadFS{OSFS{}}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("open over an unreadable journal: %v, want EIO", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused open changed the journal: %d bytes, was %d (%v)", len(after), len(before), err)
	}
	if _, _, err := ReadStateLog(dir, failReadFS{OSFS{}}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read-only view of an unreadable journal: %v, want EIO", err)
	}
}

// syncOrderFS records every directory and file fsync, in order.
type syncOrderFS struct {
	FS
	syncs []string
}

type syncOrderFile struct {
	File
	fs *syncOrderFS
}

func (s *syncOrderFS) SyncDir(path string) error {
	s.syncs = append(s.syncs, "dir "+path)
	return s.FS.SyncDir(path)
}

func (s *syncOrderFS) Create(path string) (File, error) {
	f, err := s.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return syncOrderFile{f, s}, nil
}

func (s *syncOrderFS) OpenAppend(path string) (File, error) {
	f, err := s.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return syncOrderFile{f, s}, nil
}

func (f syncOrderFile) Sync() error {
	f.fs.syncs = append(f.fs.syncs, "file")
	return f.File.Sync()
}

// TestStateLogCreateSyncsDir: the append that creates the journal makes
// its directory entry durable before the record that depends on it, so an
// acknowledged first record cannot vanish with the entry in a crash.
func TestStateLogCreateSyncsDir(t *testing.T) {
	dir := t.TempDir()
	fs := &syncOrderFS{FS: OSFS{}}
	l, err := OpenStateLog(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendEvents(t, l, 0, 1)
	if want := []string{"dir " + dir, "file"}; !reflect.DeepEqual(fs.syncs, want) {
		t.Fatalf("fsyncs before the first append returned: %q, want %q", fs.syncs, want)
	}
}
