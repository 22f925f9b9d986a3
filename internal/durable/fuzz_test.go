package durable_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"idebench/internal/durable"
	"idebench/internal/ingest"
)

// FuzzWALRecord fuzzes the WAL record layer end to end: framing and body
// decode must never panic on arbitrary bytes, any body that decodes must
// round-trip to an identical record (decode→encode→decode is identity),
// and a frame whose CRC does not match must be rejected. Seeds are real
// framed records from the datagen-backed source — the same corpus shape
// FuzzIngestRecord starts from — plus adversarial frames.
func FuzzWALRecord(f *testing.F) {
	src, err := ingest.NewSource(2000, 7)
	if err != nil {
		f.Fatal(err)
	}
	version := int64(120000)
	for i := 0; i < 4; i++ {
		b, err := src.Next(3 + i*5)
		if err != nil {
			f.Fatal(err)
		}
		rec, err := durable.EncodeWALRecord(version, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		version += int64(b.NumRows())
	}
	// Adversarial frames: empty, header-only, length lies (too long, too
	// short, huge), CRC of nothing, valid CRC over junk bodies.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32([]byte{0xFF, 0xFF, 0xFF, 0x7F}, 0))
	junk := []byte("\x00\x00\x00\x00\x00\x00\x00\x00not json at all")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(junk)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(junk))
	f.Add(append(frame, junk...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The body decoder must survive raw bytes directly (recovery hands
		// it CRC-verified bodies, but the fuzz contract is unconditional).
		if rec, err := durable.DecodeWALBody(data); err == nil {
			reEnc, err := durable.EncodeWALRecord(rec.PrevVersion, rec.Batch)
			if err != nil {
				t.Fatalf("accepted record failed to encode: %v", err)
			}
			again, err := durable.DecodeWALBody(reEnc[8:])
			if err != nil {
				t.Fatalf("round-trip decode failed: %v", err)
			}
			if again.PrevVersion != rec.PrevVersion {
				t.Fatalf("round trip changed version: %d -> %d", rec.PrevVersion, again.PrevVersion)
			}
			a, _ := rec.Batch.Encode()
			b, _ := again.Batch.Encode()
			if !bytes.Equal(a, b) {
				t.Fatalf("round trip changed the batch:\n was: %s\n now: %s", a, b)
			}
		}
	})
}

// FuzzStateLog writes arbitrary bytes as a state log and opens it the way a
// restarting coordinator does. Opening must never panic; the records it
// recovers must be exactly what the read-only view reports; the open must
// leave no torn tail behind; and one append must come back, after a reopen,
// as exactly one more record behind the recovered ones.
func FuzzStateLog(f *testing.F) {
	seed := func(build func(l *durable.StateLog)) []byte {
		dir := f.TempDir()
		l, err := durable.OpenStateLog(dir, nil)
		if err != nil {
			f.Fatal(err)
		}
		build(l)
		l.Close()
		data, err := os.ReadFile(filepath.Join(dir, "state.log"))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	full := seed(func(l *durable.StateLog) {
		for i, kind := range []string{"state", "step", "step", "topology"} {
			if err := l.Append(kind, map[string]any{"n": i, "addr": "127.0.0.1:7001"}); err != nil {
				f.Fatal(err)
			}
		}
	})
	compacted := seed(func(l *durable.StateLog) {
		if err := l.Compact(durable.StateRecord{Kind: "state", Payload: json.RawMessage(`{"global":9000}`)}); err != nil {
			f.Fatal(err)
		}
	})
	f.Add(full)
	f.Add(compacted)
	f.Add(full[:len(full)-3]) // torn tail
	f.Add([]byte{})
	noKind := []byte(`{"kind":""}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(noKind)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(noKind))
	f.Add(append(append([]byte(nil), compacted...), append(frame, noKind...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "state.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := durable.OpenStateLog(dir, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		recs := l.Records()
		read, torn, err := durable.ReadStateLog(dir, nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !reflect.DeepEqual(recs, read) {
			t.Fatalf("open recovered %d records, the read-only view %d:\n%v\n%v", len(recs), len(read), recs, read)
		}
		if torn {
			t.Fatal("the read-only view finds a torn tail after the owning open")
		}
		if err := l.Append("fuzz", map[string]int{"n": len(recs)}); err != nil {
			t.Fatalf("append: %v", err)
		}
		l.Close()
		l2, err := durable.OpenStateLog(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		after := l2.Records()
		if len(after) != len(recs)+1 || after[len(recs)].Kind != "fuzz" ||
			len(recs) > 0 && !reflect.DeepEqual(after[:len(recs)], recs) {
			t.Fatalf("reopen after one append: %d records, want the %d recovered plus one", len(after), len(recs))
		}
	})
}
