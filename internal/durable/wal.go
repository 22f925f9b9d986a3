package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"idebench/internal/ingest"
)

// DefaultSegmentBytes is the WAL rotation threshold: once the active
// segment exceeds it, the next append starts a new segment. Small enough
// that checkpoint-driven pruning reclaims space promptly, large enough
// that rotation (a file create + dir sync) is rare.
const DefaultSegmentBytes = 4 << 20

// segmentName formats the file name of a segment starting at version v.
func segmentName(v int64) string { return fmt.Sprintf("seg-%016d.wal", v) }

// parseSegmentName extracts the start version, rejecting foreign files.
func parseSegmentName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// wal is the append side of the log. Not safe for concurrent use; the
// Store serializes access.
type wal struct {
	fs       FS
	dir      string
	segBytes int64

	f       File   // active segment, nil until the first append after open/rotate
	path    string // active segment path
	size    int64  // bytes in the active segment
	version int64  // data version after every logged record
	broken  error  // sticky: set when the on-disk state is unknown (failed truncate-after-short-write)
}

// openWAL positions the append side at version. If a segment named for
// this exact version survived recovery (its tail was truncated to a record
// boundary), appending continues in it; otherwise the next append starts a
// fresh segment.
func openWAL(fs FS, dir string, version, segBytes int64) (*wal, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	w := &wal{fs: fs, dir: dir, segBytes: segBytes, version: version}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	// Resume the newest existing segment only if appends would extend it
	// contiguously — i.e. recovery replayed it to exactly `version`.
	var last string
	var lastStart int64 = -1
	for _, name := range names {
		if v, ok := parseSegmentName(name); ok && v > lastStart {
			last, lastStart = name, v
		}
	}
	if lastStart >= 0 && lastStart <= version {
		path := filepath.Join(dir, last)
		size, err := fs.Size(path)
		if err != nil {
			return nil, fmt.Errorf("durable: open wal: %w", err)
		}
		if size < w.segBytes {
			f, err := fs.OpenAppend(path)
			if err != nil {
				return nil, fmt.Errorf("durable: open wal: %w", err)
			}
			w.f, w.path, w.size = f, path, size
		}
	}
	return w, nil
}

// append logs one record whose batch advances the version by rows, fsyncs
// it, and returns the new version. On any error the record is not
// committed: a short write is rolled back by truncation, and if even that
// fails the wal goes sticky-broken (the on-disk tail state is unknown, so
// no further appends are accepted; recovery's torn-tail truncation will
// repair it on restart).
func (w *wal) append(rec []byte, rows int64) (int64, error) {
	if w.broken != nil {
		return 0, fmt.Errorf("durable: wal unusable after earlier write failure: %w", w.broken)
	}
	if w.f == nil && w.path != "" {
		// Resume the current segment after a rolled-back failed commit.
		f, err := w.fs.OpenAppend(w.path)
		if err != nil {
			return 0, fmt.Errorf("durable: wal segment reopen: %w", err)
		}
		w.f = f
	}
	if w.f == nil {
		path := filepath.Join(w.dir, segmentName(w.version))
		f, err := w.fs.Create(path)
		if err != nil {
			return 0, fmt.Errorf("durable: wal segment create: %w", err)
		}
		// Make the directory entry durable before any record relies on it.
		if err := w.fs.SyncDir(w.dir); err != nil {
			_ = f.Close()
			_ = w.fs.Remove(path)
			return 0, fmt.Errorf("durable: wal segment create: %w", err)
		}
		w.f, w.path, w.size = f, path, 0
	}
	// rollback undoes a partial record so the live segment stays clean. The
	// handle must be closed and reopened in append mode: truncation does not
	// move an open handle's write offset, and writing past it would leave a
	// zero-filled hole. If the rollback itself fails, the tail state is
	// unknown: refuse further appends rather than risk interleaving past a
	// torn record (restart recovery will truncate it properly).
	rollback := func() {
		_ = w.f.Close()
		w.f = nil
		if terr := w.fs.Truncate(w.path, w.size); terr != nil {
			w.broken = terr
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		rollback()
		return 0, fmt.Errorf("durable: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		// The bytes may or may not be durable; same rollback contract.
		rollback()
		return 0, fmt.Errorf("durable: wal fsync: %w", err)
	}
	w.size += int64(len(rec))
	w.version += rows
	if w.size >= w.segBytes {
		err := w.f.Close()
		w.f, w.path, w.size = nil, "", 0
		if err != nil {
			return 0, fmt.Errorf("durable: wal rotate: %w", err)
		}
	}
	return w.version, nil
}

// sync flushes the active segment (a no-op when every append already
// fsynced and no segment is open).
func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// close closes the active segment.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walScan is the result of recovering the on-disk log.
type walScan struct {
	records    []WALRecord // records beyond `after`, in order
	endVersion int64       // version after the last valid record (>= after)
	truncated  bool        // a torn/corrupt tail was cut off
	tailBytes  int64       // framed bytes of records beyond `after`
	segments   int         // segment files seen
}

// recoverWAL scans dir: verifies every record's CRC and version chain,
// truncates the first torn or corrupt record and everything after it
// (including later segments — nothing beyond a hole can be trusted), and
// returns the records whose versions exceed `after` (the checkpoint
// version) for replay. Two things are hard errors that leave every file as
// it was, because truncating would silently drop acked batches: a gap in the
// version chain between segments, and a CRC-valid record whose batch is of
// another format.
func recoverWAL(fs FS, dir string, after int64) (walScan, error) {
	scan := walScan{endVersion: after}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return scan, fmt.Errorf("durable: recover wal: %w", err)
	}
	type seg struct {
		name  string
		start int64
	}
	var segs []seg
	for _, name := range names {
		if v, ok := parseSegmentName(name); ok {
			segs = append(segs, seg{name, v})
		}
	}
	// ReadDir sorts names; zero-padded fixed-width versions sort numerically.
	scan.segments = len(segs)
	if len(segs) == 0 {
		return scan, nil
	}
	if segs[0].start > after {
		return scan, fmt.Errorf("durable: recover wal: oldest segment starts at version %d, checkpoint is at %d: log has a gap", segs[0].start, after)
	}
	version := segs[0].start
	for i, s := range segs {
		if s.start != version {
			if s.start < version {
				// Overlapping segments cannot happen in a log this code
				// wrote; refuse to guess.
				return scan, fmt.Errorf("durable: recover wal: segment %s starts at %d, expected %d", s.name, s.start, version)
			}
			return scan, fmt.Errorf("durable: recover wal: gap between version %d and segment %s", version, s.name)
		}
		path := filepath.Join(dir, s.name)
		data, err := fs.ReadFile(path)
		if err != nil {
			return scan, fmt.Errorf("durable: recover wal: %w", err)
		}
		off := 0
		torn := false
		for off < len(data) {
			body, next, err := nextWALRecord(data, off)
			if err != nil {
				torn = true
				break
			}
			rec, err := DecodeWALBody(body)
			if errors.Is(err, ingest.ErrFormat) {
				// Intact bytes of another format are not a torn tail:
				// truncating them would drop acknowledged batches.
				return scan, fmt.Errorf("durable: recover wal: %s, record at byte %d: %w (this build reads format %d logs and converts none — rebuild the data directory)",
					s.name, off, err, FormatVersion)
			}
			if err != nil || rec.PrevVersion != version {
				// A record that decodes but chains to the wrong version is
				// corruption just like a bad CRC.
				torn = true
				break
			}
			version += int64(rec.Batch.NumRows())
			if version > after {
				scan.records = append(scan.records, rec)
				scan.tailBytes += int64(next - off)
			}
			off = next
		}
		if torn {
			scan.truncated = true
			if off == 0 {
				// No valid prefix: remove the file entirely so a future
				// segment starting at this version can be created cleanly.
				if err := fs.Remove(path); err != nil {
					return scan, fmt.Errorf("durable: recover wal: drop torn segment: %w", err)
				}
			} else if err := fs.Truncate(path, int64(off)); err != nil {
				return scan, fmt.Errorf("durable: recover wal: truncate torn tail: %w", err)
			}
			// Later segments sit beyond the hole; discard them.
			for _, later := range segs[i+1:] {
				if err := fs.Remove(filepath.Join(dir, later.name)); err != nil {
					return scan, fmt.Errorf("durable: recover wal: drop unreachable segment: %w", err)
				}
			}
			break
		}
	}
	scan.endVersion = version
	if version < after {
		// The log ends before the checkpoint — possible when pruning won a
		// race with a crash. The checkpoint alone is consistent state.
		scan.endVersion = after
	}
	return scan, nil
}
