package durable

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// Meta identifies what a data directory holds. It is stamped into every
// checkpoint manifest and verified on recovery, so a data directory can
// never be silently reused across a different engine, dataset seed or base
// size — the replayed WAL would be nonsense against the wrong base.
type Meta struct {
	Engine   string
	Seed     int64
	BaseRows int64
}

// Options configures a Store.
type Options struct {
	// FS is the filesystem; nil means the real one. The crash wall swaps
	// in a FaultFS here.
	FS FS
	// SegmentBytes is the WAL rotation threshold (DefaultSegmentBytes if 0).
	SegmentBytes int64
	// Meta identifies the dataset; required.
	Meta Meta
}

// RecoveryInfo summarizes what Recover found; surfaced on /healthz and by
// the serve banner.
type RecoveryInfo struct {
	// Recovered is true when a checkpoint was loaded (warm start).
	Recovered bool `json:"recovered"`
	// FellBack is true when the newest checkpoint failed verification and
	// an older one was used.
	FellBack          bool  `json:"fell_back"`
	CheckpointVersion int64 `json:"checkpoint_version"`
	ReplayedBatches   int   `json:"replayed_batches"`
	ReplayedRows      int64 `json:"replayed_rows"`
	// TruncatedTail is true when a torn or corrupt WAL tail was cut off.
	TruncatedTail bool `json:"truncated_tail"`
	// Watermark is the recovered data version: checkpoint + replayed WAL.
	Watermark int64 `json:"watermark"`
}

// Status is a point-in-time view of the durable state: the /healthz
// "durable" block, and the offline inspector's summary.
type Status struct {
	RecoveryInfo
	WALBytes              int64 `json:"wal_bytes"`
	Checkpoints           int   `json:"checkpoints"`
	LastCheckpointVersion int64 `json:"last_checkpoint_version"`
	// LastCheckpointBytes is what the last checkpoint this process
	// committed wrote: its new segments plus its manifest — the whole base
	// at Bootstrap or after a full rewrite, the tail since the previous
	// checkpoint otherwise.
	LastCheckpointBytes int64 `json:"last_checkpoint_bytes"`
}

// Recovery is the result of Store.Recover: the checkpoint to prepare from
// (nil on a fresh directory) and the WAL batches to replay through the
// engine, in commit order.
type Recovery struct {
	Checkpoint *Checkpoint
	Batches    []*ingest.Batch
	Info       RecoveryInfo
}

// keepCheckpoints is how many committed checkpoints prune retains: the
// newest plus the fallback recovery uses if the newest is corrupt.
const keepCheckpoints = 2

// Store owns one data directory: its committed checkpoints and its WAL.
// LogBatch is safe for concurrent use with Checkpoint; the serving path
// logs batches on the ingest path while a background goroutine
// checkpoints.
type Store struct {
	fs       FS
	dir      string
	walDir   string
	ckptRoot string
	segDir   string
	segBytes int64
	meta     Meta

	mu        sync.Mutex // guards wal, logged, the record buffers and WAL-file pruning
	wal       *wal
	logged    int64 // WAL bytes logged since Open, counting a recovered tail
	info      RecoveryInfo
	body, rec []byte // LogBatch's record body and frame, reused

	ckptMu sync.Mutex // serializes checkpoint writes and segment pruning
	tip    *tip       // the newest committed checkpoint; guarded by ckptMu

	statMu        sync.Mutex
	lastCkptVer   int64
	lastCkptBytes int64
	// ckptLogged is logged as it stood when the view the newest committed
	// checkpoint holds was taken: AutoCheckpoint's trigger counts from it.
	ckptLogged int64
}

// Open prepares a store over dir, creating the layout if absent. It does
// not read any state; call Recover (or Bootstrap on a fresh directory)
// before logging batches.
func Open(dir string, o Options) (*Store, error) {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Meta.Engine == "" {
		return nil, fmt.Errorf("durable: open: missing engine in meta")
	}
	s := &Store{
		fs:       o.FS,
		dir:      dir,
		walDir:   filepath.Join(dir, "wal"),
		ckptRoot: filepath.Join(dir, "checkpoints"),
		segDir:   filepath.Join(dir, "segments"),
		segBytes: o.SegmentBytes,
		meta:     o.Meta,
	}
	for _, d := range []string{dir, s.walDir, s.ckptRoot, s.segDir} {
		if err := s.fs.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("durable: open: %w", err)
		}
	}
	return s, nil
}

// Recover loads the newest fully-verifying checkpoint (falling back to an
// older one when the newest is corrupt), scans the WAL — truncating any
// torn tail — and returns the batches past the checkpoint version for the
// caller to replay through the engine. It leaves the store positioned to
// append at the recovered watermark. On a fresh directory it returns a
// Recovery with a nil Checkpoint; the caller builds cold and calls
// Bootstrap.
func (s *Store) Recover() (*Recovery, error) {
	versions, err := listCheckpoints(s.fs, s.ckptRoot)
	if err != nil {
		return nil, fmt.Errorf("durable: recover: %w", err)
	}
	var ck *Checkpoint
	var loadErr error
	fellBack := false
	for i := len(versions) - 1; i >= 0; i-- {
		c, err := loadCheckpoint(s.fs, filepath.Join(s.ckptRoot, checkpointDirName(versions[i])), s.segDir)
		if errors.Is(err, errFormat) {
			return nil, fmt.Errorf("durable: recover: %w", err)
		}
		if err != nil {
			loadErr = err
			fellBack = true // anything older that loads was not the newest
			continue
		}
		ck = c
		break
	}
	if ck == nil {
		if len(versions) > 0 {
			return nil, fmt.Errorf("durable: recover: no checkpoint verifies (last error: %w)", loadErr)
		}
		// Fresh directory. A WAL without any checkpoint has no base to
		// replay onto; refuse rather than guess.
		segs, err := walSegments(s.fs, s.walDir)
		if err != nil {
			return nil, fmt.Errorf("durable: recover: %w", err)
		}
		if len(segs) > 0 {
			return nil, fmt.Errorf("durable: recover: wal segments exist but no checkpoint does; refusing to guess a base")
		}
		return &Recovery{}, nil
	}
	if ck.Manifest.Engine != s.meta.Engine || ck.Manifest.Seed != s.meta.Seed || ck.Manifest.BaseRows != s.meta.BaseRows {
		return nil, fmt.Errorf("durable: recover: data dir holds engine=%s seed=%d base=%d, serve asked for engine=%s seed=%d base=%d",
			ck.Manifest.Engine, ck.Manifest.Seed, ck.Manifest.BaseRows, s.meta.Engine, s.meta.Seed, s.meta.BaseRows)
	}

	scan, err := recoverWAL(s.fs, s.walDir, ck.Version())
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Checkpoint: ck}
	var rows int64
	for _, r := range scan.records {
		rec.Batches = append(rec.Batches, r.Batch)
		rows += int64(r.Batch.NumRows())
	}
	rec.Info = RecoveryInfo{
		Recovered:         true,
		FellBack:          fellBack,
		CheckpointVersion: ck.Version(),
		ReplayedBatches:   len(rec.Batches),
		ReplayedRows:      rows,
		TruncatedTail:     scan.truncated,
		Watermark:         scan.endVersion,
	}

	w := openWAL(s.fs, s.walDir, scan.endVersion, s.segBytes, scan.last)
	// The next checkpoint extends this one. Its dictionary ends are the
	// decoded dictionaries' lengths, read before replay grows them.
	dictTo := make([]int, len(ck.DB.Fact.Columns))
	for i, c := range ck.DB.Fact.Columns {
		if c.Dict != nil {
			dictTo[i] = c.Dict.Len()
		}
	}
	s.ckptMu.Lock()
	s.tip = newTip(ck.Manifest.Segments, ck.DB, ck.Perm, dictTo)
	s.ckptMu.Unlock()
	s.mu.Lock()
	s.wal = w
	s.logged = scan.tailBytes
	s.info = rec.Info
	s.mu.Unlock()
	s.statMu.Lock()
	s.lastCkptVer = ck.Version()
	s.statMu.Unlock()
	return rec, nil
}

// Bootstrap initializes a fresh data directory from a cold-prepared
// engine: it writes the initial checkpoint — the base database in the
// engine's prepared order, the segments every later checkpoint shares —
// and opens the WAL at its version.
func (s *Store) Bootstrap(db *dataset.Database, perm []uint32) error {
	if err := s.Checkpoint(db, perm); err != nil {
		return err
	}
	w := openWAL(s.fs, s.walDir, int64(db.Fact.NumRows()), s.segBytes, nil)
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
	return nil
}

// LogBatch appends one validated ingest batch to the WAL and fsyncs it.
// On error the batch is not durable and the caller must not apply it.
func (s *Store) LogBatch(b *ingest.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("durable: log batch: store not recovered")
	}
	// Validated here although the apply path validated it already: a record
	// recovery cannot decode would read as a torn tail and be cut off.
	if err := b.Validate(); err != nil {
		return fmt.Errorf("durable: log batch: %w", err)
	}
	s.body = appendWALBody(s.body[:0], s.wal.version, b)
	s.rec = appendFrame(s.rec[:0], s.body)
	if err := s.wal.append(s.rec, int64(b.NumRows())); err != nil {
		return err
	}
	s.logged += int64(len(s.rec))
	return nil
}

// loggedBytes returns the WAL bytes logged since Open.
func (s *Store) loggedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logged
}

// walSinceCheckpoint returns the WAL bytes logged since the view the
// newest committed checkpoint holds was taken.
func (s *Store) walSinceCheckpoint() int64 {
	logged := s.loggedBytes()
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return logged - s.ckptLogged
}

// Watermark returns the version after the last durably logged batch.
func (s *Store) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.version
}

// Checkpoint writes a checkpoint of the given immutable view (safe to call
// while LogBatch runs: views are copy-on-write) and then prunes — old
// checkpoints beyond the retention count, segments no retained checkpoint
// references, and WAL segments wholly covered by the oldest retained
// checkpoint. A view that extends the newest checkpoint costs one fact
// segment holding the rows since it; any other view is written in full.
func (s *Store) Checkpoint(db *dataset.Database, perm []uint32) error {
	return s.checkpoint(db, perm, s.loggedBytes())
}

// checkpoint is Checkpoint for a view taken when logged stood at mark.
func (s *Store) checkpoint(db *dataset.Database, perm []uint32, mark int64) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	version := int64(db.Fact.NumRows())
	if s.tip != nil && version == s.tip.version {
		return nil // nothing new to capture
	}
	var segs []ManifestSegment
	var written int64
	from, dictFrom := 0, []int(nil)
	tmpName := func(role string) string { return fmt.Sprintf(".tmp-%016d-%s-%d.seg", version, role, len(segs)) }
	if s.tip.extendedBy(db, perm) {
		segs = slices.Clone(s.tip.segs)
		from, dictFrom = int(s.tip.version), s.tip.dictTo
	} else {
		// The base: dimension tables and the permutation, then the fact
		// table from row 0.
		for _, d := range db.Dimensions {
			ms, _, err := writeTableSegment(s.fs, s.segDir, tmpName(roleDim),
				ManifestSegment{Role: roleDim, FKColumn: d.FKColumn}, d.Table, 0, d.Table.NumRows(), nil)
			if err != nil {
				return fmt.Errorf("durable: checkpoint: %w", err)
			}
			segs, written = append(segs, ms), written+ms.Bytes
		}
		if len(perm) > 0 {
			ms, err := writeSegment(s.fs, s.segDir, tmpName(rolePerm),
				ManifestSegment{Role: rolePerm, To: int64(len(perm))},
				func(w io.Writer) error { return encodePerm(w, perm) })
			if err != nil {
				return fmt.Errorf("durable: checkpoint: %w", err)
			}
			segs, written = append(segs, ms), written+ms.Bytes
		}
	}
	ms, dictTo, err := writeTableSegment(s.fs, s.segDir, tmpName(roleFact),
		ManifestSegment{Role: roleFact}, db.Fact, from, int(version), dictFrom)
	if err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	segs, written = append(segs, ms), written+ms.Bytes
	if err := s.fs.SyncDir(s.segDir); err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	m := &Manifest{
		Format:        FormatVersion,
		Engine:        s.meta.Engine,
		Seed:          s.meta.Seed,
		BaseRows:      s.meta.BaseRows,
		Version:       version,
		Segments:      segs,
		ContentSHA256: contentDigest(segs),
	}
	mbytes, err := commitManifest(s.fs, s.ckptRoot, m)
	if err != nil {
		// The new segments are orphans now; the next prune sweeps them.
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	s.tip = newTip(segs, db, perm, dictTo)
	s.statMu.Lock()
	s.lastCkptVer = version
	s.lastCkptBytes = written + mbytes
	s.ckptLogged = max(s.ckptLogged, mark)
	s.statMu.Unlock()
	s.prune()
	return nil
}

// prune drops checkpoints beyond the retention count, segments no retained
// checkpoint references (a tail the fallback no longer shares, orphans of a
// checkpoint that failed between its segments and its manifest), and WAL
// segments every retained checkpoint already covers. It runs under ckptMu,
// so no checkpoint is in flight. Failures are ignored: pruning is space
// reclamation, never correctness.
func (s *Store) prune() {
	versions, err := listCheckpoints(s.fs, s.ckptRoot)
	if err != nil {
		return
	}
	for len(versions) > keepCheckpoints {
		_ = s.fs.RemoveAll(filepath.Join(s.ckptRoot, checkpointDirName(versions[0])))
		versions = versions[1:]
	}
	if len(versions) == 0 {
		return
	}
	s.sweepSegments(versions)
	floor := versions[0] // oldest retained checkpoint
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := walSegments(s.fs, s.walDir)
	if err != nil {
		return
	}
	// A segment is prunable when the NEXT segment starts at or below the
	// floor (its own records then all end at or below it). The last
	// segment is the active one and always stays.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].start <= floor {
			_ = s.fs.Remove(filepath.Join(s.walDir, segs[i].name))
		}
	}
}

// sweepSegments removes every file under segments/ that no retained
// checkpoint's manifest references. A manifest that cannot be read stops
// the sweep: what it references is unknown.
func (s *Store) sweepSegments(versions []int64) {
	live := make(map[string]bool)
	for _, v := range versions {
		m, err := readManifest(s.fs, filepath.Join(s.ckptRoot, checkpointDirName(v)))
		if err != nil {
			return
		}
		for _, seg := range m.Segments {
			live[segmentFileName(seg.SHA256)] = true
		}
	}
	names, err := s.fs.ReadDir(s.segDir)
	if err != nil {
		return
	}
	for _, n := range names {
		if !live[n] {
			_ = s.fs.Remove(filepath.Join(s.segDir, n))
		}
	}
}

// Info returns what recovery found.
func (s *Store) Info() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// Status reports the current durable state.
func (s *Store) Status() Status {
	var st Status
	st.RecoveryInfo = s.Info()
	if segs, err := walSegments(s.fs, s.walDir); err == nil {
		for _, seg := range segs {
			if sz, err := s.fs.Size(filepath.Join(s.walDir, seg.name)); err == nil {
				st.WALBytes += sz
			}
		}
	}
	if versions, err := listCheckpoints(s.fs, s.ckptRoot); err == nil {
		st.Checkpoints = len(versions)
	}
	s.statMu.Lock()
	st.LastCheckpointVersion = s.lastCkptVer
	st.LastCheckpointBytes = s.lastCkptBytes
	s.statMu.Unlock()
	return st
}

// Flush fsyncs the active WAL segment. Every LogBatch already fsyncs, so
// this only matters as the drain barrier before exit.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.log.sync()
}

// Close flushes and closes the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.log.close()
}

// AutoCheckpoint starts a background goroutine that checkpoints whenever
// the WAL bytes logged since the newest committed checkpoint's view was
// taken reach walLimit, polling every interval. Batches logged while a
// checkpoint runs count toward the next one. snap must return the engine's current immutable view (the
// ViewSnapshotter capability); onErr receives checkpoint failures (which
// leave the previous checkpoint serving — durability degrades to a longer
// replay, never to data loss). The returned stop function blocks until the
// goroutine exits.
func (s *Store) AutoCheckpoint(interval time.Duration, walLimit int64, snap func() (*dataset.Database, []uint32), onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if walLimit <= 0 {
		walLimit = 8 << 20
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if s.walSinceCheckpoint() < walLimit {
				continue
			}
			// Taken before the view: a batch logged in between counts
			// toward the next checkpoint even if this view holds it.
			mark := s.loggedBytes()
			db, perm := snap()
			if db == nil {
				continue
			}
			if err := s.checkpoint(db, perm, mark); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
