// Package durable is the durability subsystem: checksummed, versioned
// on-disk checkpoints of a prepared dataset.Database plus a CRC-framed,
// fsync-on-commit write-ahead log of ingest batches, and the recovery
// procedure that stitches the two back into a serving engine after a crash.
//
// # Checkpoint layout
//
// Checkpoints are incremental and content-addressed. Table data lives in
// <data-dir>/segments/<sha256>.seg, one file per segment of the stable
// dataset codec (rows [from, to) of a table, each nominal column carrying
// the dictionary delta its rows first reference, each quantitative column
// the memoized bounds through its last row), named by the SHA-256 of its
// bytes. A checkpoint is one directory under <data-dir>/checkpoints/, named
// ckpt-<version> where version is the fact-table row count (= the data
// version / ingest watermark, per the versioned-watermark model from the
// live-ingestion subsystem), holding only MANIFEST.json: format version,
// engine name, dataset seed, base row count, and the segments it is made
// of — role, row range, byte count, CRC-32 and SHA-256 each — plus a
// content digest over the segments' digests. Bootstrap writes the base:
// the dimension tables, the sampling permutation (absent for arrival-order
// engines) and the fact table's rows [0, base). Every later checkpoint of a
// view that extends the newest one writes a single new fact segment, the
// rows since that checkpoint, and a manifest listing the previous
// checkpoint's segments plus the new one. A view that does not extend it
// (fewer rows, a different boundary row, other dimension tables or
// permutation) is written in full. Segments are streamed to disk through a
// buffered writer that computes the byte count and both checksums on the
// way, so no table-sized buffer exists; a warm load decodes the fact
// segments straight into columns presized from the manifest and rebuilds
// a fully prepared database without any per-row pass.
//
// Commit order: each segment goes to a temp file in segments/, is fsynced
// and renamed to its content address; segments/ is fsynced; then the
// manifest goes into a temp directory under checkpoints/, is fsynced, the
// directory is renamed to ckpt-<version> (the checkpoint's single commit
// point), and checkpoints/ is fsynced. A crash before the last rename
// leaves the previous checkpoints intact plus orphan segments and temp
// litter, which recovery ignores and the next checkpoint's prune removes
// (prune runs under the checkpoint lock, so it never races a checkpoint in
// flight).
//
// The newest two checkpoints are retained and share every segment but the
// newest one's tail; prune deletes only segments no retained manifest
// references. The trade against keeping two independent full copies: the
// fallback protects against a torn or corrupt newest tail — recovery loads
// the previous checkpoint and replays a longer WAL — but a corrupt or
// missing shared segment (the base, an older tail) fails both, and
// recovery refuses loudly ("no checkpoint verifies", naming the segment)
// rather than serve partial state. A directory of any other format (1: one
// full copy per checkpoint; 2: this layout with a JSON WAL) is refused with a
// message naming its format.
//
// # Framed logs
//
// The WAL and the coordinator's state log are one primitive underneath: an
// append-only file of frames
//
//	u32 body length | u32 CRC-32 (IEEE) of body | body
//
// read by one scanner and appended by one writer. The scan's valid prefix
// ends at the first incomplete frame, implausible length or CRC mismatch,
// or at the first body its owner rejects; the scan only reads, and the
// owner decides what the rest means (recovery truncates it, a read-only
// observer and the inspector report it). An append commits in the order
// create → directory fsync → write → fsync → ack: the append that creates
// the file fsyncs its directory before any record depends on the entry,
// and nothing is acked before its own fsync returns. A failed write or
// fsync is not committed: the file is truncated back to its committed size
// and reopened. If that truncation fails the tail is unknown, and the log
// refuses every later append; the next open's scan repairs it.
//
// A WAL segment is resumed after recovery only when its recovered chain
// ends exactly at the version the next record chains from. When recovery
// ends below the loaded checkpoint (a record the checkpoint covers was
// cut), every segment left is one that checkpoint wholly covers: they are
// removed, and appends start a fresh segment named for the checkpoint
// version, whose directory fsync also makes the removals durable.
//
// # The WAL
//
// The WAL lives in <data-dir>/wal/ as segment files seg-<version>.wal,
// named by the data version before their first record. Each record is one
// frame whose body is
//
//	u64 previous version | binary ingest batch (ingest/binary.go)
//
// The chained previous-version field makes every record's position in the
// version sequence self-describing: replay verifies each record extends
// the version it recovered so far, so a misplaced or re-ordered record is
// detected as corruption rather than silently applied.
//
// Commit ordering is strictly validate → log → apply: a batch is fully
// materialized (schema, kinds, FK bounds) against the live database first,
// then appended to the WAL and fsynced, and only then applied to the
// engine, acked to the client, and broadcast. Consequences: (1) an acked
// batch is durable — a crash immediately after the ack replays it; (2) the
// WAL never holds a batch the engine would reject, so replay cannot fail
// on validation; (3) a crash between fsync and apply redoes the batch on
// recovery — at-least-once relative to the ack, exactly-once relative to
// the engine, because recovery replays exactly the records beyond the
// checkpoint version. Segments rotate at a size threshold; segments wholly
// covered by the oldest retained checkpoint are deleted after each
// checkpoint, which is what bounds WAL length.
//
// # Recovery
//
// Recover loads the newest checkpoint whose manifest and checksums fully
// verify (falling back to the previous one otherwise), then scans the WAL
// in segment order: every record's CRC and version chain are verified, and
// records beyond the checkpoint version are returned for replay through
// engine.Appender. At the first framing or CRC error the segment is
// truncated at the last valid record — a torn tail from a mid-write crash
// — and any later segments are discarded; a torn or corrupt record is
// therefore never applied. A CRC-valid record holding a batch of another
// format is not a torn tail: recovery refuses it, naming the format, and
// changes no file. The recovered watermark is batch-aligned by
// construction (appends are atomic; versions only ever advance by whole
// batches). What is NOT guaranteed: batches the client never got an ack
// for may or may not survive (the crash may have landed before or after
// their fsync), and fsync lies from the storage stack are out of scope.
package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS abstracts the filesystem operations the durability layer performs —
// exactly the injection surface the disk-fault tests need (short writes,
// ENOSPC, failing fsync, failing rename). The real implementation is OSFS.
type FS interface {
	MkdirAll(path string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(path string) (File, error)
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names (not paths) of path's entries, sorted.
	// A missing directory is an error (callers MkdirAll first).
	ReadDir(path string) ([]string, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	RemoveAll(path string) error
	Truncate(path string, size int64) error
	// Size returns the byte size of the named file.
	Size(path string) (int64, error)
	// SyncDir fsyncs a directory, making renames and creates within it
	// durable.
	SyncDir(path string) error
}

// File is the writable handle surface the durability layer uses.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// RemoveAll implements FS.
func (OSFS) RemoveAll(path string) error { return os.RemoveAll(path) }

// Truncate implements FS.
func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Size implements FS.
func (OSFS) Size(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
