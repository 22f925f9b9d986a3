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

// walSegment is one WAL segment file; readWALSegment fills in what it
// holds.
type walSegment struct {
	name  string
	start int64 // data version before its first record

	records []WALRecord
	frames  []int // framed bytes of each record
	end     int64 // version after the last valid record
	valid   int   // bytes of the valid prefix
	size    int   // bytes in the file
	stop    error // why the valid prefix ends before size; nil when it does not
}

// walSegments lists the segment files in dir in version order, skipping
// foreign files.
func walSegments(fs FS, dir string) ([]walSegment, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, name := range names {
		if v, ok := parseSegmentName(name); ok {
			segs = append(segs, walSegment{name: name, start: v})
		}
	}
	// ReadDir sorts names; zero-padded fixed-width versions sort numerically.
	return segs, nil
}

// readWALSegment reads seg and walks its version chain from seg.start:
// each record must decode and extend the version before it, so a record
// that decodes but chains to the wrong version ends the valid prefix just
// like a bad CRC. It changes no file: recovery decides what to do with an
// invalid tail, the inspector only reports it.
func readWALSegment(fs FS, dir string, seg walSegment) (walSegment, error) {
	data, err := fs.ReadFile(filepath.Join(dir, seg.name))
	if err != nil {
		return seg, err
	}
	seg.size, seg.end = len(data), seg.start
	seg.valid, seg.stop = scanFrames(data, func(off int, body []byte) error {
		rec, err := DecodeWALBody(body)
		if err != nil {
			return err
		}
		if rec.PrevVersion != seg.end {
			return fmt.Errorf("version chain broken at byte %d: record says %d, chain says %d", off, rec.PrevVersion, seg.end)
		}
		seg.records = append(seg.records, rec)
		seg.frames = append(seg.frames, recordHeaderBytes+len(body))
		seg.end += int64(rec.Batch.NumRows())
		return nil
	})
	return seg, nil
}

// wal is the append side of the log: a framed log over the active segment
// plus rotation and the version chain. Not safe for concurrent use; the
// Store serializes access.
type wal struct {
	log      framedLog // the active segment; no path until the next append starts one
	dir      string
	segBytes int64
	version  int64 // data version after every logged record
}

// openWAL positions the append side at version. It resumes last, the
// newest segment as recovery left it, only when last's chain ends exactly
// at version and it has room; otherwise the next append starts a fresh
// segment named for version.
func openWAL(fs FS, dir string, version, segBytes int64, last *walSegment) *wal {
	w := &wal{log: framedLog{fs: fs}, dir: dir, segBytes: segBytes, version: version}
	if last != nil && last.end == version && int64(last.valid) < segBytes {
		w.log.path, w.log.size = filepath.Join(dir, last.name), int64(last.valid)
	}
	return w
}

// append logs one record whose batch advances the version by rows. An
// error from the framed log means the record is not committed and the
// version does not move; a rotation error comes after the commit.
func (w *wal) append(rec []byte, rows int64) error {
	if w.log.path == "" {
		w.log.path, w.log.size = filepath.Join(w.dir, segmentName(w.version)), 0
	}
	if err := w.log.append(rec); err != nil {
		return err
	}
	w.version += rows
	if w.log.size >= w.segBytes {
		err := w.log.close()
		w.log.path = ""
		if err != nil {
			return fmt.Errorf("durable: wal rotate: %w", err)
		}
	}
	return nil
}

// walScan is the result of recovering the on-disk log.
type walScan struct {
	records    []WALRecord // records beyond `after`, in order
	endVersion int64       // version after the last valid record (>= after)
	truncated  bool        // a torn/corrupt tail was cut off
	tailBytes  int64       // framed bytes of records beyond `after`
	last       *walSegment // the newest segment left on disk; nil when none is
}

// recoverWAL scans dir: verifies every record's CRC and version chain,
// truncates the first torn or corrupt record and everything after it
// (including later segments — nothing beyond a hole can be trusted), and
// returns the records whose versions exceed `after` (the checkpoint
// version) for replay. Two things are hard errors that leave every file as
// it was, because truncating would silently drop acked batches: a gap in the
// version chain between segments, and a CRC-valid record whose batch is of
// another format. A log that ends below `after` is wholly covered by the
// checkpoint: its segments are removed, so that appends start a fresh
// segment at `after` rather than chain onto one that ends earlier.
func recoverWAL(fs FS, dir string, after int64) (walScan, error) {
	scan := walScan{endVersion: after}
	segs, err := walSegments(fs, dir)
	if err != nil {
		return scan, fmt.Errorf("durable: recover wal: %w", err)
	}
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
		seg, err := readWALSegment(fs, dir, s)
		if err != nil {
			return scan, fmt.Errorf("durable: recover wal: %w", err)
		}
		if errors.Is(seg.stop, ingest.ErrFormat) {
			// Intact bytes of another format are not a torn tail:
			// truncating them would drop acknowledged batches.
			return scan, fmt.Errorf("durable: recover wal: %s, record at byte %d: %w (this build reads format %d logs and converts none — rebuild the data directory)",
				s.name, seg.valid, seg.stop, FormatVersion)
		}
		for k, rec := range seg.records {
			version += int64(rec.Batch.NumRows())
			if version > after {
				scan.records = append(scan.records, rec)
				scan.tailBytes += int64(seg.frames[k])
			}
		}
		// Keep what resuming needs, not the decoded records.
		segs[i].end, segs[i].valid = seg.end, seg.valid
		if seg.stop == nil {
			continue
		}
		scan.truncated = true
		kept := segs[:i+1]
		path := filepath.Join(dir, s.name)
		if seg.valid == 0 {
			// No valid prefix: remove the file entirely so a future
			// segment starting at this version can be created cleanly.
			if err := fs.Remove(path); err != nil {
				return scan, fmt.Errorf("durable: recover wal: drop torn segment: %w", err)
			}
			kept = segs[:i]
		} else if err := fs.Truncate(path, int64(seg.valid)); err != nil {
			return scan, fmt.Errorf("durable: recover wal: truncate torn tail: %w", err)
		}
		// Later segments sit beyond the hole; discard them.
		for _, later := range segs[i+1:] {
			if err := fs.Remove(filepath.Join(dir, later.name)); err != nil {
				return scan, fmt.Errorf("durable: recover wal: drop unreachable segment: %w", err)
			}
		}
		segs = kept
		break
	}
	if version < after {
		// Every record left is one the checkpoint holds: a record it
		// covers was cut, or pruning won a race with a crash. The next
		// append's directory fsync makes these removals durable.
		for _, s := range segs {
			if err := fs.Remove(filepath.Join(dir, s.name)); err != nil {
				return scan, fmt.Errorf("durable: recover wal: drop covered segment: %w", err)
			}
		}
		return scan, nil
	}
	scan.endVersion = version
	if len(segs) > 0 {
		scan.last = &segs[len(segs)-1]
	}
	return scan, nil
}
