package ingest_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"idebench/internal/ingest"
)

// TestSourceGolden pins the first 20 batches of a seeded Source bit for bit
// (SHA-256 over their binary forms): the batch stream is what a network
// replay applies on both sides of the wire, so the generator behind it may
// change speed but never output. The digest was recorded from the
// row-at-a-time generator.
func TestSourceGolden(t *testing.T) {
	const want = "ed0d863a8e0ba2e840c5ce785bf98eed18b5172f2a415e2012c673f4cf280fb9"
	src, err := ingest.NewSource(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for i := 0; i < 20; i++ {
		b, err := src.Next(500)
		if err != nil {
			t.Fatal(err)
		}
		buf = b.AppendBinary(buf[:0])
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("first 20 Source batches digest %s, want %s", got, want)
	}
}
