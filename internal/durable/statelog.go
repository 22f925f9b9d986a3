package durable

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
)

// StateLog is an append-only control-plane journal: a single CRC-framed file
// of small JSON records, reusing the WAL's frame (u32 len | u32 CRC | body)
// so it inherits the torn-tail story — a mid-write crash leaves a frame the
// scanner rejects, and opening the log truncates at the last valid record.
// It persists state that changes rarely but must survive the process
// (topology membership, version-log steps), as opposed to the ingest WAL,
// which persists the data itself.
//
// Record kinds and payloads are opaque to this package: the owner defines
// them, which keeps durable free of upward imports. Appends are fsynced
// before returning — a StateLog append that returned nil happened.
//
// Exactly one process may append to a state log at a time; ReadStateLog is
// the read-only view for an observer (a warm standby tailing the primary's
// journal), which tolerates a torn tail without truncating the file the
// writer still owns.
type StateLog struct {
	fs   FS
	path string

	mu     sync.Mutex
	f      File
	size   int64
	broken error
	recs   []StateRecord // records recovered at open; not extended by Append
}

// StateRecord is one journal entry: a kind tag and an owner-defined payload.
type StateRecord struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// stateLogFile is the journal's file name inside its directory.
const stateLogFile = "state.log"

// OpenStateLog opens (creating if absent) the state log in dir, scanning
// existing records and truncating any torn tail. The recovered records are
// available via Records until Close.
func OpenStateLog(dir string, fs FS) (*StateLog, error) {
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: state log dir: %w", err)
	}
	path := filepath.Join(dir, stateLogFile)
	recs, valid, err := scanStateLog(fs, path)
	if err != nil {
		return nil, err
	}
	if size, serr := fs.Size(path); serr == nil && size > valid {
		// Torn tail from a mid-write crash: cut it so the next append starts
		// at a clean frame boundary.
		if terr := fs.Truncate(path, valid); terr != nil {
			return nil, fmt.Errorf("durable: truncate torn state log tail: %w", terr)
		}
	}
	return &StateLog{fs: fs, path: path, size: valid, recs: recs}, nil
}

// scanStateLog reads every valid record of the log at path, returning them
// with the byte offset where valid data ends. A missing file is an empty
// log.
func scanStateLog(fs FS, path string) ([]StateRecord, int64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		// Missing is the common first-boot case; any other read error will
		// resurface on the first append.
		return nil, 0, nil
	}
	var recs []StateRecord
	off := 0
	for off < len(data) {
		body, next, err := nextWALRecord(data, off)
		if err != nil {
			break // torn or corrupt: valid data ends here
		}
		var rec StateRecord
		if err := json.Unmarshal(body, &rec); err != nil || rec.Kind == "" {
			break // framed but unparseable: treat like a torn tail
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, int64(off), nil
}

// Records returns the records recovered when the log was opened, oldest
// first. The slice is the log's own; callers must not mutate it.
func (l *StateLog) Records() []StateRecord { return l.recs }

// Append marshals payload under kind, frames it, writes and fsyncs. A short
// write is rolled back by truncation; if the rollback itself fails the log
// is marked broken and every later append fails — state must never be acked
// off a journal in an unknown state.
func (l *StateLog) Append(kind string, payload any) error {
	if kind == "" {
		return fmt.Errorf("durable: state log record needs a kind")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("durable: encode state payload: %w", err)
	}
	body, err := json.Marshal(StateRecord{Kind: kind, Payload: raw})
	if err != nil {
		return fmt.Errorf("durable: encode state record: %w", err)
	}
	frame := appendWALRecord(nil, body)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("durable: state log broken: %w", l.broken)
	}
	if err := l.ensureOpen(); err != nil {
		return err
	}
	if _, werr := l.f.Write(frame); werr != nil {
		l.rollback(werr)
		return fmt.Errorf("durable: state log append: %w", werr)
	}
	if serr := l.f.Sync(); serr != nil {
		l.rollback(serr)
		return fmt.Errorf("durable: state log sync: %w", serr)
	}
	l.size += int64(len(frame))
	return nil
}

// ensureOpen lazily opens the append handle. Callers hold l.mu.
func (l *StateLog) ensureOpen() error {
	if l.f != nil {
		return nil
	}
	if l.size == 0 {
		f, err := l.fs.Create(l.path)
		if err != nil {
			return fmt.Errorf("durable: create state log: %w", err)
		}
		l.f = f
		return nil
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("durable: open state log: %w", err)
	}
	l.f = f
	return nil
}

// rollback truncates a failed append back to the last committed size.
// Callers hold l.mu.
func (l *StateLog) rollback(cause error) {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if err := l.fs.Truncate(l.path, l.size); err != nil {
		// Unknown on-disk state: refuse all further appends.
		l.broken = fmt.Errorf("rollback after %v: %w", cause, err)
	}
}

// Compact atomically replaces the whole log with the given records (usually
// one full-state snapshot): write to a temp file, fsync, rename into place,
// fsync the directory. A failure before the rename leaves the existing log
// untouched; once the rename lands, the compacted log is the one appends
// extend, even when the directory fsync then fails.
func (l *StateLog) Compact(recs ...StateRecord) error {
	var data []byte
	for _, rec := range recs {
		if rec.Kind == "" {
			return fmt.Errorf("durable: state log record needs a kind")
		}
		body, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("durable: encode state record: %w", err)
		}
		data = appendWALRecord(data, body)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("durable: state log broken: %w", l.broken)
	}
	tmp := l.path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if err := f.Close(); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("durable: state log compact rename: %w", err)
	}
	// The compacted file is the log from here on, even if the directory sync
	// below fails: appends and rollbacks must count from its size.
	l.size = int64(len(data))
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("durable: state log compact sync: %w", err)
	}
	return nil
}

// Close releases the append handle. Records stays readable.
func (l *StateLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadStateLog reads the state log in dir without taking ownership: every
// valid record is returned and a torn tail is reported, not truncated —
// the primary may be mid-append. A missing log is an empty journal.
func ReadStateLog(dir string, fs FS) (recs []StateRecord, torn bool, err error) {
	if fs == nil {
		fs = OSFS{}
	}
	path := filepath.Join(dir, stateLogFile)
	recs, valid, err := scanStateLog(fs, path)
	if err != nil {
		return nil, false, err
	}
	if size, serr := fs.Size(path); serr == nil && size > valid {
		torn = true
	}
	return recs, torn, nil
}
