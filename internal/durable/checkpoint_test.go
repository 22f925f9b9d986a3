package durable_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// checkpointManifests returns the manifests of every committed checkpoint
// in dir, oldest first.
func checkpointManifests(t *testing.T, dir string) []durable.Manifest {
	t.Helper()
	root := filepath.Join(dir, "checkpoints")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var ms []durable.Manifest
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "ckpt-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, e.Name(), "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m durable.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// segmentPath is where a checkpoint segment with the given digest lives.
func segmentPath(dir, sha string) string {
	return filepath.Join(dir, "segments", sha+".seg")
}

// segmentFiles returns the names of the files under dir's segments/.
func segmentFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(ents))
	for _, e := range ents {
		names[e.Name()] = true
	}
	return names
}

// checkpointBytes returns every committed checkpoint's MANIFEST.json and
// every segment file of dir, keyed by name, after checking each segment
// hashes to its own name — a content address that lies would not show up
// in a comparison of two directories that lie the same way.
func checkpointBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	root := filepath.Join(dir, "checkpoints")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(root, e.Name(), "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	for name := range segmentFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, "segments", name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:])+".seg" != name {
			t.Fatalf("segment %s does not hash to its name", name)
		}
		out[name] = data
	}
	return out
}

// TestCheckpointDeterminism pins the byte-identity guarantee: two builds of
// the same logical database — each from scratch, in separate directories —
// checkpointed at the same versions produce identical manifests and
// identical segment bytes, each segment hashing to its own name. This is
// what makes a checkpoint's content digest a usable identity for the
// offline inspector and for replication-style comparisons. The second
// build is checkpointed with derived storage present — plans compiled
// against it have memoized bin codes on its fact columns — which must not
// reach the bytes either.
func TestCheckpointDeterminism(t *testing.T) {
	var dirs [2]map[string][]byte
	for i := range dirs {
		dir := t.TempDir()
		// Re-derive the database from scratch each round: determinism must
		// hold across independent builds, not just repeated encodes of one
		// in-memory object.
		db, err := core.BuildData(testBaseRows, false, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			for _, b := range []query.Binning{
				{Field: "dep_delay", Kind: dataset.Quantitative, Width: 20},
				{Field: "distance", Kind: dataset.Quantitative, Width: 250},
			} {
				q := &query.Query{VizName: "v", Table: db.Fact.Name, Bins: []query.Binning{b},
					Aggs: []query.Aggregate{{Func: query.Count}}}
				if _, err := engine.Compile(db, q); err != nil {
					t.Fatal(err)
				}
				if db.Fact.Column(b.Field).BinCodeBuilds() != 1 {
					t.Fatalf("compiling a %s histogram built no code column", b.Field)
				}
			}
		}
		st := openTestStore(t, dir, durable.Options{})
		if err := st.Bootstrap(db, nil); err != nil {
			t.Fatal(err)
		}
		cur := db
		for _, b := range testBatches(t, 2, 300) {
			cur = growDB(t, cur, []*ingest.Batch{b})
			if err := st.Checkpoint(cur, nil); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		dirs[i] = checkpointBytes(t, dir)
	}
	if len(dirs[0]) != len(dirs[1]) {
		t.Fatalf("builds hold %d and %d checkpoint files", len(dirs[0]), len(dirs[1]))
	}
	for name, a := range dirs[0] {
		if b, ok := dirs[1][name]; !ok || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between checkpoints of the same logical database", name)
		}
	}
	// The star schema's dimension tables are part of the base: the same
	// holds for them.
	shas := make([]string, 2)
	for i := range shas {
		dir := t.TempDir()
		db, err := core.BuildData(testBaseRows, true, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		st := openTestStore(t, dir, durable.Options{})
		if err := st.Bootstrap(db, nil); err != nil {
			t.Fatal(err)
		}
		st.Close()
		ms := checkpointManifests(t, dir)
		if len(ms) != 1 || len(ms[0].Segments) != len(db.Dimensions)+1 {
			t.Fatalf("star-schema bootstrap: %d checkpoints, want 1 with %d segments", len(ms), len(db.Dimensions)+1)
		}
		shas[i] = ms[0].ContentSHA256
	}
	if shas[0] != shas[1] {
		t.Fatalf("star-schema checkpoints of the same logical database hash differently:\n %s\n %s", shas[0], shas[1])
	}
}

// TestCheckpointLoadRejectsTamper: any byte flip in any segment must fail
// verification (CRC or digest), and Inspect must flag it.
func TestCheckpointLoadRejectsTamper(t *testing.T) {
	dir := t.TempDir()
	db, err := core.BuildData(testBaseRows, true, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The base fact segment, under segments/.
	var seg string
	for _, s := range checkpointManifests(t, dir)[0].Segments {
		if s.Role == "fact" {
			seg = segmentPath(dir, s.SHA256)
		}
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, durable.Options{})
	if _, err := st2.Recover(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("tampered checkpoint must fail CRC verification, got %v", err)
	}
	var out strings.Builder
	if err := durable.Inspect(dir, nil, &out); err == nil {
		t.Fatal("inspect must fail on a tampered newest checkpoint")
	}
	if !strings.Contains(out.String(), "VERIFY FAILED") {
		t.Fatalf("inspect output lacks verification failure:\n%s", out.String())
	}
}

// TestInspectCleanDirectory: a healthy directory inspects clean, the report
// covers both checkpoints segment by segment and the WAL, the base the two
// checkpoints share is marked shared, and an orphan segment is reported
// without failing the inspection.
func TestInspectCleanDirectory(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t)
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 2, 100)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(growDB(t, db, batches), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	orphan := filepath.Join(dir, "segments", strings.Repeat("0", 64)+".seg")
	if err := os.WriteFile(orphan, []byte("left by a crashed checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := durable.Inspect(dir, nil, &out); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"all checksums OK", "content_sha256=", "wal seg-", "2 records",
		"fact        rows [0, 3000)", "fact        rows [3000, 3200)", " shared\n", "orphan segment " + filepath.Base(orphan)} {
		if !strings.Contains(got, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "verify: all checksums OK"); n != 2 {
		t.Fatalf("%d checkpoints verified, want 2:\n%s", n, got)
	}
}
