package durable

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// Inspect prints a data directory's checkpoints, segment by segment, and
// verifies every checksum offline: each referenced segment once (size,
// CRC-32, SHA-256, and a clean decode), each checkpoint's manifest (format,
// content digest, fact segments tiling its version), and every WAL
// record's CRC and version chain. A segment two retained checkpoints share
// is marked shared; files under segments/ no checkpoint references are
// reported as orphans. It returns an error when the newest checkpoint fails
// verification or the directory holds no checkpoint at all; older corrupt
// checkpoints, orphans and a torn WAL tail (expected after a crash,
// repaired by the next recovery or checkpoint) are reported but non-fatal.
func Inspect(dir string, fs FS, w io.Writer) error {
	if fs == nil {
		fs = OSFS{}
	}
	ckptRoot, segDir := filepath.Join(dir, "checkpoints"), filepath.Join(dir, "segments")
	versions, err := listCheckpoints(fs, ckptRoot)
	if err != nil {
		return fmt.Errorf("durable: inspect: %w", err)
	}
	if len(versions) == 0 {
		return fmt.Errorf("durable: inspect: no checkpoints in %s", dir)
	}
	manifests := make([]Manifest, len(versions))
	manifestErrs := make([]error, len(versions))
	refs := make(map[string]int) // segment file -> checkpoints referencing it
	for i, v := range versions {
		manifests[i], manifestErrs[i] = readManifest(fs, filepath.Join(ckptRoot, checkpointDirName(v)))
		for _, s := range manifests[i].Segments {
			refs[segmentFileName(s.SHA256)]++
		}
	}
	verified := make(map[string]error) // segment file -> its verification
	var newestErr error
	for i, v := range versions {
		m, err := manifests[i], manifestErrs[i]
		fmt.Fprintf(w, "checkpoint %s\n", checkpointDirName(v))
		if m.Format == FormatVersion {
			fmt.Fprintf(w, "  engine=%s seed=%d base_rows=%d version=%d format=%d\n",
				m.Engine, m.Seed, m.BaseRows, m.Version, m.Format)
		}
		for _, s := range m.Segments {
			name := segmentFileName(s.SHA256)
			fmt.Fprintf(w, "  %-11s rows [%d, %d) bytes=%-10d crc32=%08x %s", s.Role, s.From, s.To, s.Bytes, s.CRC32, name)
			if s.FKColumn != "" {
				fmt.Fprintf(w, " fk=%s", s.FKColumn)
			}
			if refs[name] > 1 {
				fmt.Fprint(w, " shared")
			}
			fmt.Fprintln(w)
			segErr, seen := verified[name]
			if !seen {
				segErr = verifySegment(fs, segDir, s)
				verified[name] = segErr
			}
			if err == nil {
				err = segErr
			}
		}
		if m.Format == FormatVersion {
			fmt.Fprintf(w, "  content_sha256=%s\n", m.ContentSHA256)
		}
		if err != nil {
			fmt.Fprintf(w, "  VERIFY FAILED: %v\n", err)
			if i == len(versions)-1 {
				newestErr = err
			}
		} else {
			fmt.Fprintf(w, "  verify: all checksums OK\n")
		}
	}
	if names, err := fs.ReadDir(segDir); err == nil {
		for _, n := range names {
			if refs[n] == 0 {
				fmt.Fprintf(w, "orphan segment %s: no checkpoint references it (the next checkpoint removes it)\n", n)
			}
		}
	}

	walDir := filepath.Join(dir, "wal")
	segs, _ := walSegments(fs, walDir) // no wal/ directory: nothing logged
	for _, seg := range segs {
		seg, err := readWALSegment(fs, walDir, seg)
		if err != nil {
			fmt.Fprintf(w, "wal %s: read failed: %v\n", seg.name, err)
			continue
		}
		fmt.Fprintf(w, "wal %s: %d records, versions %d..%d, %d bytes", seg.name, len(seg.records), seg.start, seg.end, seg.size)
		switch {
		case errors.Is(seg.stop, ingest.ErrFormat):
			fmt.Fprintf(w, " [another format; recovery refuses it: %v]", seg.stop)
		case seg.stop != nil:
			fmt.Fprintf(w, " [tail not committed: %v]", seg.stop)
		}
		fmt.Fprintln(w)
	}
	if newestErr != nil {
		return fmt.Errorf("durable: inspect: newest checkpoint failed verification: %w", newestErr)
	}
	return nil
}

// verifySegment reads one segment, checks it against its manifest entry,
// and decodes it standalone.
func verifySegment(fs FS, segDir string, s ManifestSegment) error {
	data, err := readSegment(fs, segDir, s)
	if err != nil {
		return err
	}
	switch s.Role {
	case roleFact, roleDim:
		var seg *dataset.Segment
		if seg, err = dataset.DecodeSegment(data); err == nil && (int64(seg.From) != s.From || int64(seg.To) != s.To) {
			err = fmt.Errorf("holds rows [%d, %d), manifest says [%d, %d)", seg.From, seg.To, s.From, s.To)
		}
	case rolePerm:
		_, err = decodePerm(data)
	}
	if err != nil {
		return fmt.Errorf("durable: %s segment %s: %w", s.Role, segmentFileName(s.SHA256), err)
	}
	return nil
}
