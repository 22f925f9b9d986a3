package durable

import (
	"errors"
	"path/filepath"
	"sync"
)

// Injected fault errors, distinguishable in tests from real I/O failures.
var (
	// ErrNoSpace is the injected out-of-disk error; writes that hit the
	// budget may have landed partially (a short write), exactly like a real
	// ENOSPC mid-buffer.
	ErrNoSpace = errors.New("durable: injected no space left on device")
	// ErrSyncFailed is the injected fsync failure. A failed fsync means the
	// data may or may not be on disk; the durability layer must treat the
	// operation as not committed.
	ErrSyncFailed = errors.New("durable: injected fsync failure")
	// ErrRenameFailed is the injected rename failure, used to model a crash
	// between writing a checkpoint's temp directory and publishing it.
	ErrRenameFailed = errors.New("durable: injected rename failure")
)

// FaultFS wraps an FS with injectable disk faults: a total write budget
// (writes past it land short and then fail with ErrNoSpace), failing
// fsyncs, and failing renames. The crash wall drives the checkpoint writer
// and the WAL through it to prove that every failure either leaves the
// previous durable state intact or surfaces as a rejected commit — never
// as silently applied, un-durable data.
type FaultFS struct {
	base FS

	mu          sync.Mutex
	writeBudget int64  // -1: unlimited
	failSyncs   int    // next n Sync calls fail
	failRenames int    // next n Rename calls (into renameDir, if set) fail
	renameDir   string // "": any rename
}

// NewFaultFS wraps base with no faults armed.
func NewFaultFS(base FS) *FaultFS {
	return &FaultFS{base: base, writeBudget: -1}
}

// SetWriteBudget arms the ENOSPC fault: after n more bytes have been
// written (across all files), writes land short and fail. n < 0 disarms.
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.mu.Unlock()
}

// FailNextSyncs makes the next n Sync calls fail with ErrSyncFailed.
func (f *FaultFS) FailNextSyncs(n int) {
	f.mu.Lock()
	f.failSyncs = n
	f.mu.Unlock()
}

// FailNextRenames makes the next n Rename calls fail with ErrRenameFailed.
func (f *FaultFS) FailNextRenames(n int) { f.FailNextRenamesInto("", n) }

// FailNextRenamesInto makes the next n Rename calls whose destination lies
// directly in dir fail with ErrRenameFailed; renames elsewhere go through.
// It models a crash at one chosen publish step — a checkpoint's manifest,
// say, after its segments landed.
func (f *FaultFS) FailNextRenamesInto(dir string, n int) {
	f.mu.Lock()
	f.failRenames, f.renameDir = n, dir
	f.mu.Unlock()
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string) error { return f.base.MkdirAll(path) }

// Create implements FS.
func (f *FaultFS) Create(path string) (File, error) {
	file, err := f.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(path string) (File, error) {
	file, err := f.base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) { return f.base.ReadFile(path) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(path string) ([]string, error) { return f.base.ReadDir(path) }

// Rename implements FS.
func (f *FaultFS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	if f.failRenames > 0 && (f.renameDir == "" || filepath.Dir(newPath) == filepath.Clean(f.renameDir)) {
		f.failRenames--
		f.mu.Unlock()
		return ErrRenameFailed
	}
	f.mu.Unlock()
	return f.base.Rename(oldPath, newPath)
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error { return f.base.Remove(path) }

// RemoveAll implements FS.
func (f *FaultFS) RemoveAll(path string) error { return f.base.RemoveAll(path) }

// Truncate implements FS.
func (f *FaultFS) Truncate(path string, size int64) error { return f.base.Truncate(path, size) }

// Size implements FS.
func (f *FaultFS) Size(path string) (int64, error) { return f.base.Size(path) }

// SyncDir implements FS. Directory syncs share the fsync fault arm.
func (f *FaultFS) SyncDir(path string) error {
	if err := f.takeSyncFault(); err != nil {
		return err
	}
	return f.base.SyncDir(path)
}

func (f *FaultFS) takeSyncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSyncs > 0 {
		f.failSyncs--
		return ErrSyncFailed
	}
	return nil
}

type faultFile struct {
	fs *FaultFS
	f  File
}

// Write implements io.Writer, honoring the write budget: the portion of p
// that fits is written through (a short write), the rest fails.
func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	budget := w.fs.writeBudget
	allowed := len(p)
	if budget >= 0 {
		if int64(allowed) > budget {
			allowed = int(budget)
		}
		w.fs.writeBudget = budget - int64(allowed)
	}
	w.fs.mu.Unlock()

	n := 0
	if allowed > 0 {
		var err error
		n, err = w.f.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if allowed < len(p) {
		return n, ErrNoSpace
	}
	return n, nil
}

// Sync implements File.
func (w *faultFile) Sync() error {
	if err := w.fs.takeSyncFault(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close implements File.
func (w *faultFile) Close() error { return w.f.Close() }
