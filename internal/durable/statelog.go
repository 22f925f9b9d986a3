package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// StateLog is an append-only control-plane journal: one framed log (see
// "Framed logs" in the package comment) of small JSON records. It persists
// state that changes rarely but must survive the process (topology
// membership, version-log steps), as opposed to the ingest WAL, which
// persists the data itself.
//
// Record kinds and payloads are opaque to this package: the owner defines
// them, which keeps durable free of upward imports. A StateLog append that
// returned nil happened.
//
// Exactly one process may append to a state log at a time; ReadStateLog is
// the read-only view for an observer (a warm standby tailing the primary's
// journal), which tolerates a torn tail without truncating the file the
// writer still owns.
type StateLog struct {
	mu   sync.Mutex
	log  framedLog
	recs []StateRecord // records recovered at open; not extended by Append
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
	recs, valid, size, err := readStateLog(fs, path)
	if err != nil {
		return nil, err
	}
	if size > valid {
		// Torn tail from a mid-write crash: cut it so the next append starts
		// at a clean frame boundary.
		if terr := fs.Truncate(path, valid); terr != nil {
			return nil, fmt.Errorf("durable: truncate torn state log tail: %w", terr)
		}
	}
	return &StateLog{log: framedLog{fs: fs, path: path, size: valid}, recs: recs}, nil
}

// readStateLog reads every valid record of the log at path, with the byte
// offsets where its valid prefix and the file end. A framed record that is
// not a state record ends the valid prefix like a torn frame. Only a
// missing file is an empty log: any other read error is returned, so a log
// that cannot be read is never mistaken for an empty one and truncated.
func readStateLog(fs FS, path string) (recs []StateRecord, valid, size int64, err error) {
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("durable: read state log: %w", err)
	}
	n, _ := scanFrames(data, func(_ int, body []byte) error {
		var rec StateRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		if rec.Kind == "" {
			return errors.New("state record without a kind")
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, int64(n), int64(len(data)), nil
}

// Records returns the records recovered when the log was opened, oldest
// first. The slice is the log's own; callers must not mutate it.
func (l *StateLog) Records() []StateRecord { return l.recs }

// Append marshals payload under kind, frames it, writes and fsyncs.
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.append(appendFrame(nil, body))
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
		data = appendFrame(data, body)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log.broken != nil {
		return fmt.Errorf("durable: state log broken: %w", l.log.broken)
	}
	fs, tmp := l.log.fs, l.log.path+".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("durable: state log compact: %w", err)
	}
	l.log.close()
	if err := fs.Rename(tmp, l.log.path); err != nil {
		return fmt.Errorf("durable: state log compact rename: %w", err)
	}
	// The compacted file is the log from here on, even if the directory sync
	// below fails: appends and rollbacks must count from its size.
	l.log.size = int64(len(data))
	if err := fs.SyncDir(filepath.Dir(l.log.path)); err != nil {
		return fmt.Errorf("durable: state log compact sync: %w", err)
	}
	return nil
}

// Close releases the append handle. Records stays readable.
func (l *StateLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
}

// ReadStateLog reads the state log in dir without taking ownership: every
// valid record is returned and a torn tail is reported, not truncated —
// the primary may be mid-append. A missing log is an empty journal.
func ReadStateLog(dir string, fs FS) (recs []StateRecord, torn bool, err error) {
	if fs == nil {
		fs = OSFS{}
	}
	recs, valid, size, err := readStateLog(fs, filepath.Join(dir, stateLogFile))
	if err != nil {
		return nil, false, err
	}
	return recs, size > valid, nil
}
