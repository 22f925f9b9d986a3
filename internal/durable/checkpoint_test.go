package durable_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/query"
)

// readManifestSHA extracts the content digest of the single checkpoint in
// dir, plus a digest over the raw segment bytes computed independently of
// the manifest (catching a manifest that lies consistently).
func readManifestSHA(t *testing.T, dir string) (manifestSHA string, rawSHA [32]byte) {
	t.Helper()
	root := filepath.Join(dir, "checkpoints")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			if ckpt != "" {
				t.Fatalf("expected one checkpoint, found %s and %s", ckpt, e.Name())
			}
			ckpt = e.Name()
		}
	}
	if ckpt == "" {
		t.Fatal("no checkpoint written")
	}
	mf, err := os.ReadFile(filepath.Join(root, ckpt, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ContentSHA256 string `json:"content_sha256"`
		Files         []struct {
			Name string `json:"name"`
		} `json:"files"`
	}
	if err := json.Unmarshal(mf, &m); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, f := range m.Files {
		data, err := os.ReadFile(filepath.Join(root, ckpt, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	copy(rawSHA[:], h.Sum(nil))
	return m.ContentSHA256, rawSHA
}

// TestCheckpointDeterminism pins the byte-identity guarantee: two
// checkpoints of the same logical database — built twice from scratch, in
// separate directories — hash equal, both by the manifest's own digest and
// by an independent pass over the segment bytes. This is what makes a
// checkpoint's content digest a usable identity for the offline inspector
// and for replication-style comparisons. The second build is checkpointed
// with derived storage present — plans compiled against it have memoized bin
// codes on its fact columns — which must not reach the bytes either.
func TestCheckpointDeterminism(t *testing.T) {
	shas := make([]string, 2)
	raws := make([][32]byte, 2)
	for i := range shas {
		dir := t.TempDir()
		// Re-derive the database from scratch each round: determinism must
		// hold across independent builds, not just repeated encodes of one
		// in-memory object.
		db, err := core.BuildData(testBaseRows, true, testSeed) // star schema: dims + FK columns too
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
		st.Close()
		shas[i], raws[i] = readManifestSHA(t, dir)
	}
	if shas[0] != shas[1] {
		t.Fatalf("checkpoints of the same logical database hash differently:\n %s\n %s", shas[0], shas[1])
	}
	if !bytes.Equal(raws[0][:], raws[1][:]) {
		t.Fatal("raw segment bytes differ between checkpoints of the same logical database")
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

	root := filepath.Join(dir, "checkpoints")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(root, ents[0].Name(), "fact.seg")
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

// TestInspectCleanDirectory: a healthy directory inspects clean and the
// report covers both the checkpoint and the WAL.
func TestInspectCleanDirectory(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(t, 2, 100) {
		if err := st.LogBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	var out strings.Builder
	if err := durable.Inspect(dir, nil, &out); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"all checksums OK", "content_sha256=", "wal seg-", "2 records"} {
		if !strings.Contains(got, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, got)
		}
	}
}
