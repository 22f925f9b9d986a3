package durable

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"idebench/internal/dataset"
)

// FormatVersion is bumped whenever the checkpoint layout, the segment
// encoding or the WAL record body changes incompatibly; loaders refuse other
// versions. Format 1 held one full copy of every table per checkpoint
// directory; format 2 holds content-addressed segments shared between
// checkpoints and logs JSON batches; format 3 keeps format 2's checkpoints
// and logs binary batches.
const FormatVersion = 3

// manifestName is the file a checkpoint directory commits with — a
// directory without it is not a checkpoint.
const manifestName = "MANIFEST.json"

// Segment roles.
const (
	roleFact = "fact"
	roleDim  = "dimension"
	rolePerm = "permutation"
)

// ManifestSegment describes one segment a checkpoint references. The
// segment's file is <data-dir>/segments/<SHA256>.seg.
type ManifestSegment struct {
	SHA256 string `json:"sha256"`
	Role   string `json:"role"`
	// From and To are the rows the segment holds: [From, To) of the fact
	// table for a fact segment, [0, rows) for a dimension table, [0, n) of
	// the permutation's entries.
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
	// FKColumn is the fact-side foreign-key column for dimension segments.
	FKColumn string `json:"fk_column,omitempty"`
}

// Manifest is a checkpoint's self-description, written last and fsynced;
// its presence commits the checkpoint. Segments lists dimension tables and
// the permutation first, then the fact segments in row order.
type Manifest struct {
	Format   int    `json:"format"`
	Engine   string `json:"engine"`
	Seed     int64  `json:"seed"`
	BaseRows int64  `json:"base_rows"`
	// Version is the fact-table row count — the data version / watermark
	// this checkpoint captures.
	Version  int64             `json:"version"`
	Segments []ManifestSegment `json:"segments"`
	// ContentSHA256 digests the segments' SHA-256 digests in Segments
	// order: the whole-checkpoint identity the determinism test and the
	// offline inspector use.
	ContentSHA256 string `json:"content_sha256"`
}

// Checkpoint is a loaded, verified checkpoint.
type Checkpoint struct {
	Manifest Manifest
	DB       *dataset.Database
	// Perm is the sampling permutation the fact prefix is stored in; nil
	// for arrival-order engines.
	Perm []uint32
}

// Version returns the data version the checkpoint captures.
func (c *Checkpoint) Version() int64 { return c.Manifest.Version }

func checkpointDirName(v int64) string { return fmt.Sprintf("ckpt-%016d", v) }

func parseCheckpointDirName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "ckpt-") {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimPrefix(name, "ckpt-"), 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

func segmentFileName(sha string) string { return sha + ".seg" }

// contentDigest is the checkpoint identity over its segments' digests.
func contentDigest(segs []ManifestSegment) string {
	h := sha256.New()
	for _, s := range segs {
		h.Write([]byte(s.SHA256))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// permMagic frames the serialized sampling permutation.
var permMagic = []byte("IDBP1\x00")

func encodePerm(w io.Writer, perm []uint32) error {
	buf := make([]byte, 0, 32<<10)
	buf = append(buf, permMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(perm)))
	for len(perm) > 0 {
		n := min(len(perm), (cap(buf)-len(buf))/4)
		for _, p := range perm[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, p)
		}
		perm = perm[n:]
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	_, err := w.Write(buf)
	return err
}

func decodePerm(data []byte) ([]uint32, error) {
	r := len(permMagic)
	if len(data) < r+8 || string(data[:r]) != string(permMagic) {
		return nil, fmt.Errorf("durable: permutation segment: bad header")
	}
	n := binary.LittleEndian.Uint64(data[r:])
	if uint64(len(data)-r-8) != n*4 {
		return nil, fmt.Errorf("durable: permutation segment: %d entries for %d payload bytes", n, len(data)-r-8)
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = binary.LittleEndian.Uint32(data[r+8+4*i:])
	}
	return perm, nil
}

// hashingFile counts, CRCs and hashes what it writes through to a file.
type hashingFile struct {
	f     File
	crc   hash.Hash32
	sha   hash.Hash
	bytes int64
}

func (h *hashingFile) Write(p []byte) (int, error) {
	n, err := h.f.Write(p)
	h.crc.Write(p[:n])
	h.sha.Write(p[:n])
	h.bytes += int64(n)
	return n, err
}

// writeSegment streams one segment into segDir: encode writes through a
// buffered writer into a temp file while its byte count, CRC-32 and SHA-256
// are computed on the way; the file is fsynced and renamed to its content
// address. The caller fsyncs segDir once every segment of the checkpoint is
// in place. On error the temp file is removed.
func writeSegment(fs FS, segDir, tmpName string, ms ManifestSegment, encode func(io.Writer) error) (ManifestSegment, error) {
	tmp := filepath.Join(segDir, tmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return ms, err
	}
	h := &hashingFile{f: f, crc: crc32.NewIEEE(), sha: sha256.New()}
	bw := bufio.NewWriterSize(h, 64<<10)
	err = encode(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		ms.SHA256 = hex.EncodeToString(h.sha.Sum(nil))
		ms.Bytes, ms.CRC32 = h.bytes, h.crc.Sum32()
		err = fs.Rename(tmp, filepath.Join(segDir, segmentFileName(ms.SHA256)))
	}
	if err != nil {
		_ = fs.Remove(tmp)
	}
	return ms, err
}

// writeTableSegment streams rows [from, to) of t (see dataset.TableSegment)
// and returns its manifest entry plus each column's dictionary end.
func writeTableSegment(fs FS, segDir, tmpName string, ms ManifestSegment, t *dataset.Table, from, to int, dictFrom []int) (ManifestSegment, []int, error) {
	seg, err := dataset.TableSegment(t, from, to, dictFrom)
	if err != nil {
		return ms, nil, err
	}
	ms.From, ms.To = int64(from), int64(to)
	ms, err = writeSegment(fs, segDir, tmpName, ms, seg.Encode)
	dictTo := make([]int, len(seg.Columns))
	for i := range seg.Columns {
		dictTo[i] = seg.Columns[i].DictTo()
	}
	return ms, dictTo, err
}

// commitManifest publishes a checkpoint: the manifest goes into a temp
// directory under root (<data-dir>/checkpoints) and is fsynced, the
// directory is renamed to ckpt-<version> and root is fsynced. It returns
// the manifest's byte count. On error the temp directory is removed and
// previously committed checkpoints are untouched.
func commitManifest(fs FS, root string, m *Manifest) (int64, error) {
	tmp := filepath.Join(root, fmt.Sprintf(".tmp-%016d", m.Version))
	final := filepath.Join(root, checkpointDirName(m.Version))
	_ = fs.RemoveAll(tmp) // clobber litter from a crashed writer
	if err := fs.MkdirAll(tmp); err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		_ = fs.RemoveAll(tmp)
		return 0, err
	}
	mf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fail(err)
	}
	mf = append(mf, '\n')
	f, err := fs.Create(filepath.Join(tmp, manifestName))
	if err != nil {
		return fail(err)
	}
	if _, err := f.Write(mf); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := fs.SyncDir(tmp); err != nil {
		return fail(err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fail(err)
	}
	if err := fs.SyncDir(root); err != nil {
		return 0, err
	}
	return int64(len(mf)), nil
}

// errFormat marks a checkpoint this build cannot read at all; recovery
// refuses it outright instead of falling back.
var errFormat = errors.New("unsupported checkpoint format")

// readManifest loads and sanity-checks a checkpoint's manifest (see
// parseManifest).
func readManifest(fs FS, dir string) (Manifest, error) {
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	m, err := parseManifest(data)
	if errors.Is(err, errFormat) {
		err = fmt.Errorf("durable: %s: %w", dir, err)
	}
	return m, err
}

// parseManifest decodes and sanity-checks a manifest: format, segment
// digests, content digest, and fact segments tiling [0, version). Every
// digest must be 64 lowercase hex characters before anything joins it into
// a path under segments/. A manifest of another format or with any other
// digest comes back without segments, so no caller can read, keep or list
// a file it names.
func parseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	if m.Format != FormatVersion {
		return Manifest{Format: m.Format}, fmt.Errorf("%w %d (this build reads format %d and converts no other — "+
			"rebuild the data directory)", errFormat, m.Format, FormatVersion)
	}
	for i, s := range m.Segments {
		if !isSHA256Hex(s.SHA256) {
			return Manifest{}, fmt.Errorf("durable: checkpoint manifest: segment %d (%s) has digest %q, not 64 lowercase hex characters",
				i, s.Role, s.SHA256)
		}
	}
	if contentDigest(m.Segments) != m.ContentSHA256 {
		return m, fmt.Errorf("durable: checkpoint manifest: content digest mismatch")
	}
	next, perms := int64(0), 0
	for _, s := range m.Segments {
		switch s.Role {
		case roleFact:
			if s.From != next || s.To < s.From {
				return m, fmt.Errorf("durable: checkpoint manifest: fact segment %s holds rows [%d, %d), expected to start at %d",
					segmentFileName(s.SHA256), s.From, s.To, next)
			}
			next = s.To
		case rolePerm:
			perms++
		case roleDim:
		default:
			return m, fmt.Errorf("durable: checkpoint manifest: segment %s: unknown role %q", segmentFileName(s.SHA256), s.Role)
		}
	}
	if next != m.Version || perms > 1 {
		return m, fmt.Errorf("durable: checkpoint manifest: fact segments cover %d rows and %d permutations, version is %d", next, perms, m.Version)
	}
	return m, nil
}

// isSHA256Hex reports whether s is a SHA-256 digest as writeSegment names
// segments: 64 lowercase hex characters.
func isSHA256Hex(s string) bool {
	b, err := hex.DecodeString(s)
	return err == nil && len(b) == sha256.Size && s == strings.ToLower(s)
}

// readSegment reads one referenced segment and verifies its size, CRC-32
// and SHA-256 against the manifest entry.
func readSegment(fs FS, segDir string, s ManifestSegment) ([]byte, error) {
	name := segmentFileName(s.SHA256)
	data, err := fs.ReadFile(filepath.Join(segDir, name))
	if err != nil {
		return nil, fmt.Errorf("durable: %s segment %s: %w", s.Role, name, err)
	}
	if int64(len(data)) != s.Bytes {
		return nil, fmt.Errorf("durable: %s segment %s: %d bytes, manifest says %d", s.Role, name, len(data), s.Bytes)
	}
	if crc32.ChecksumIEEE(data) != s.CRC32 {
		return nil, fmt.Errorf("durable: %s segment %s: CRC mismatch", s.Role, name)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != s.SHA256 {
		return nil, fmt.Errorf("durable: %s segment %s: SHA-256 mismatch", s.Role, name)
	}
	return data, nil
}

// loadCheckpoint reads and fully verifies the checkpoint in dir: every
// listed segment must exist with the manifested size, CRC and SHA-256, and
// the lineage must decode cleanly. Fact segments decode straight into one
// set of columns presized for the manifest's version. Anything less is an
// error — the caller falls back to an older checkpoint rather than serve
// partial state.
func loadCheckpoint(fs FS, dir, segDir string) (*Checkpoint, error) {
	m, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	// Presize for the whole lineage, but never beyond what the listed fact
	// segments could hold: a row takes at least a byte in any real table.
	var factBytes int64
	for _, s := range m.Segments {
		if s.Role == roleFact {
			factBytes += s.Bytes
		}
	}
	facts := dataset.NewTableLoader(int(min(m.Version, factBytes)))
	ck := &Checkpoint{Manifest: m}
	var dims []*dataset.Dimension
	for _, s := range m.Segments {
		data, err := readSegment(fs, segDir, s)
		if err != nil {
			return nil, err
		}
		switch s.Role {
		case roleFact:
			err = facts.Add(data)
		case roleDim:
			var t *dataset.Table
			if t, err = dataset.DecodeTable(data); err == nil {
				dims = append(dims, &dataset.Dimension{Table: t, FKColumn: s.FKColumn})
			}
		case rolePerm:
			ck.Perm, err = decodePerm(data)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: %s segment %s: %w", s.Role, segmentFileName(s.SHA256), err)
		}
	}
	fact, err := facts.Table()
	if err != nil {
		return nil, fmt.Errorf("durable: checkpoint fact table: %w", err)
	}
	if len(ck.Perm) > fact.NumRows() {
		return nil, fmt.Errorf("durable: checkpoint permutation has %d entries for %d rows", len(ck.Perm), fact.NumRows())
	}
	ck.DB = &dataset.Database{Fact: fact, Dimensions: dims}
	return ck, nil
}

// listCheckpoints returns committed checkpoint versions under root in
// ascending order, ignoring temp litter.
func listCheckpoints(fs FS, root string) ([]int64, error) {
	names, err := fs.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var versions []int64
	for _, name := range names {
		if v, ok := parseCheckpointDirName(name); ok {
			versions = append(versions, v)
		}
	}
	return versions, nil // ReadDir sorts; zero-padded names sort numerically
}

// tip is what the newest committed checkpoint holds: the prefix the next
// checkpoint extends with one fact segment instead of rewriting it.
type tip struct {
	version int64
	segs    []ManifestSegment
	name    string
	fields  []dataset.Field
	// dictTo is, per fact column, where the last fact segment's dictionary
	// delta ended: the next segment's delta starts there.
	dictTo []int
	// boundary is fact row version-1, per column: the float bits or the
	// dictionary code, and a nominal code's value.
	boundary []boundaryValue
	dims     []*dataset.Dimension
	perm     []uint32
}

type boundaryValue struct {
	bits  uint64
	value string
}

func newTip(segs []ManifestSegment, db *dataset.Database, perm []uint32, dictTo []int) *tip {
	f := db.Fact
	t := &tip{
		version: int64(f.NumRows()),
		segs:    segs,
		name:    f.Name,
		fields:  f.Schema.Fields,
		dictTo:  dictTo,
		dims:    db.Dimensions,
		perm:    perm,
	}
	if r := f.NumRows() - 1; r >= 0 {
		t.boundary = make([]boundaryValue, len(f.Columns))
		for i, c := range f.Columns {
			if c.Field.Kind == dataset.Nominal {
				t.boundary[i] = boundaryValue{uint64(c.Codes[r]), c.Dict.Value(c.Codes[r])}
			} else {
				t.boundary[i] = boundaryValue{bits: math.Float64bits(c.Nums[r])}
			}
		}
	}
	return t
}

// extendedBy reports whether db (with perm) continues this checkpoint's
// lineage: the same table, dimension tables and permutation, at least as
// many rows, the same boundary row, and dictionaries that still hold every
// value the checkpoint wrote. A view that fails any of these is written in
// full rather than appended to a prefix it does not share.
func (t *tip) extendedBy(db *dataset.Database, perm []uint32) bool {
	f := db.Fact
	if t == nil || int64(f.NumRows()) < t.version || f.Name != t.name ||
		!slices.Equal(f.Schema.Fields, t.fields) || !slices.Equal(perm, t.perm) ||
		len(db.Dimensions) != len(t.dims) {
		return false
	}
	for i, d := range db.Dimensions {
		if d.Table != t.dims[i].Table || d.FKColumn != t.dims[i].FKColumn {
			return false
		}
	}
	r := int(t.version) - 1
	for i, c := range f.Columns {
		if c.Field.Kind == dataset.Nominal {
			if c.Dict.Len() < t.dictTo[i] {
				return false
			}
			if r >= 0 && (uint64(c.Codes[r]) != t.boundary[i].bits || c.Dict.Value(c.Codes[r]) != t.boundary[i].value) {
				return false
			}
		} else if r >= 0 && math.Float64bits(c.Nums[r]) != t.boundary[i].bits {
			return false
		}
	}
	return true
}
