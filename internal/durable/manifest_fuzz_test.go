package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// digestOf is a well-formed segment digest for test manifests.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// manifestJSON encodes m with its content digest filled in.
func manifestJSON(t testing.TB, m Manifest) []byte {
	m.ContentSHA256 = contentDigest(m.Segments)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// validManifest is a format-current manifest: a dimension, a permutation
// and two fact segments tiling [0, 300).
func validManifest() Manifest {
	return Manifest{Format: FormatVersion, Engine: "progressive", Seed: 1, BaseRows: 200, Version: 300,
		Segments: []ManifestSegment{
			{SHA256: digestOf("dim"), Role: roleDim, To: 9, FKColumn: "carrier_id"},
			{SHA256: digestOf("perm"), Role: rolePerm, To: 200},
			{SHA256: digestOf("base"), Role: roleFact, To: 200},
			{SHA256: digestOf("tail"), Role: roleFact, From: 200, To: 300},
		}}
}

// digestRE is the fuzz oracle's own reading of a segment digest.
var digestRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// TestManifestRefusesNonDigestNames: a segment digest is joined into a
// path under segments/, so anything but 64 lowercase hex characters —
// a traversal, an uppercase digest, a short one — is refused, naming the
// segment, and the refused manifest carries no segment back.
func TestManifestRefusesNonDigestNames(t *testing.T) {
	for _, bad := range []string{"../x", "../../" + digestOf("x")[6:], strings.ToUpper(digestOf("x")), digestOf("x")[:63], ""} {
		m := validManifest()
		m.Segments[3].SHA256 = bad
		got, err := parseManifest(manifestJSON(t, m))
		if err == nil || !strings.Contains(err.Error(), "segment 3 (fact)") {
			t.Fatalf("digest %q: want a refusal naming segment 3, got %v", bad, err)
		}
		if len(got.Segments) != 0 {
			t.Fatalf("digest %q: refused manifest returned %d segments", bad, len(got.Segments))
		}
	}
	if _, err := parseManifest(manifestJSON(t, validManifest())); err != nil {
		t.Fatalf("valid manifest refused: %v", err)
	}
}

// FuzzManifest feeds arbitrary bytes to the manifest parse recovery, prune
// and inspect all go through. It must never panic; every accepted manifest
// names only well-formed digests and its fact segments tile [0, version);
// a refused one returns no segment whose digest is malformed.
func FuzzManifest(f *testing.F) {
	f.Add(manifestJSON(f, validManifest()))
	gap := validManifest()
	gap.Segments[3].From = 250
	f.Add(manifestJSON(f, gap))
	escape := validManifest()
	escape.Segments[0].SHA256 = "../../etc/passwd"
	f.Add(manifestJSON(f, escape))
	old := validManifest()
	old.Format = 2
	f.Add(manifestJSON(f, old))
	f.Add([]byte(`{"format": 1, "version": 3000, "segments": [{"role": "fact", "to": 3000}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		for i, s := range m.Segments {
			if !digestRE.MatchString(s.SHA256) {
				t.Fatalf("parse (err %v) returned segment %d with digest %q", err, i, s.SHA256)
			}
		}
		if err != nil {
			return
		}
		next := int64(0)
		for _, s := range m.Segments {
			if s.Role != roleFact {
				continue
			}
			if s.From != next || s.To < s.From {
				t.Fatalf("accepted manifest: fact segment [%d, %d) after row %d", s.From, s.To, next)
			}
			next = s.To
		}
		if next != m.Version {
			t.Fatalf("accepted manifest: fact segments cover %d rows of version %d", next, m.Version)
		}
	})
}
