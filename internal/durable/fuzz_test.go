package durable_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/ingest"
)

// FuzzWALRecord fuzzes the WAL record body: decoding must never panic on
// arbitrary bytes, and any body that decodes must round-trip to an identical
// record whose encoding is a fixed point. Seeds are real record bodies from
// the datagen-backed source — the corpus shape FuzzIngestRecord starts from —
// plus the binary batch codec's edge cases and adversarial bodies.
func FuzzWALRecord(f *testing.F) {
	src, err := ingest.NewSource(2000, 7)
	if err != nil {
		f.Fatal(err)
	}
	version := int64(120000)
	body := func(prev int64, b *ingest.Batch) []byte {
		rec, err := durable.EncodeWALRecord(prev, b)
		if err != nil {
			f.Fatal(err)
		}
		return rec[8:]
	}
	for i := 0; i < 4; i++ {
		b, err := src.Next(3 + i*5)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body(version, b))
		version += int64(b.NumRows())
	}
	prev := binary.LittleEndian.AppendUint64(nil, uint64(version))
	oneRow := &ingest.Batch{Table: "flights", Seq: 1, Columns: []ingest.Column{
		{Kind: dataset.Nominal, Dict: []string{"AA"}, Codes: []uint32{0}}}}
	f.Add(body(version, oneRow))
	floats := &ingest.Batch{Table: "flights", Columns: []ingest.Column{
		{Kind: dataset.Quantitative, Nums: []float64{math.Copysign(0, -1), 5e-324, -math.SmallestNonzeroFloat64}}}}
	f.Add(body(version, floats))
	wide := ingest.Column{Kind: dataset.Nominal}
	for i := 0; i < 300; i++ {
		wide.Dict = append(wide.Dict, fmt.Sprintf("v%d", i))
		wide.Codes = append(wide.Codes, uint32(i))
	}
	f.Add(body(version, &ingest.Batch{Table: "flights", Columns: []ingest.Column{wide}}))
	// 24 bytes claiming 2^31 rows of one column.
	huge := binary.AppendUvarint(append(bytes.Clone(prev), 0x41, 1, 't', 0), 1<<31)
	huge = binary.AppendUvarint(huge, 1)
	f.Add(append(huge, make([]byte, 24-len(huge))...))
	// Adversarial bodies: empty, a version alone, a JSON batch, a negative
	// version.
	f.Add([]byte{})
	f.Add(bytes.Clone(prev))
	f.Add(append(bytes.Clone(prev), `{"table":"flights","rows":[["AA",1]]}`...))
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, body(0, oneRow)[8:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := durable.DecodeWALBody(data)
		if err != nil {
			return
		}
		reEnc, err := durable.EncodeWALRecord(rec.PrevVersion, rec.Batch)
		if err != nil {
			t.Fatalf("accepted record failed to encode: %v", err)
		}
		again, err := durable.DecodeWALBody(reEnc[8:])
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if again.PrevVersion != rec.PrevVersion || !reflect.DeepEqual(again.Batch, rec.Batch) {
			t.Fatalf("round trip changed the record:\n was: %d %#v\n now: %d %#v", rec.PrevVersion, rec.Batch, again.PrevVersion, again.Batch)
		}
		if reEnc2, _ := durable.EncodeWALRecord(again.PrevVersion, again.Batch); !bytes.Equal(reEnc, reEnc2) {
			t.Fatalf("record encoding not a fixed point:\n was: %x\n now: %x", reEnc, reEnc2)
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

// FuzzWALSegment writes arbitrary bytes as the one WAL segment above a
// checkpoint and recovers the directory. Recovery must never panic, and it
// may refuse only a CRC-valid record of another format, changing no file.
// Otherwise the replayed records, re-framed, are exactly the bytes
// recovery kept; a second recovery returns the same records with nothing
// to truncate; and Inspect, run on the bytes as written, reports the same
// record count and end version for the segment.
func FuzzWALSegment(f *testing.F) {
	tmpl := f.TempDir()
	st := openTestStore(f, tmpl, durable.Options{})
	if err := st.Bootstrap(testDB(f), nil); err != nil {
		f.Fatal(err)
	}
	batches := testBatches(f, 4, 40)
	for _, b := range batches {
		if err := st.LogBatch(b); err != nil {
			f.Fatal(err)
		}
	}
	st.Close()
	name := fmt.Sprintf("seg-%016d.wal", testBaseRows)
	full, err := os.ReadFile(filepath.Join(tmpl, "wal", name))
	if err != nil {
		f.Fatal(err)
	}
	if err := os.Remove(filepath.Join(tmpl, "wal", name)); err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-5]) // torn final record
	flipped := bytes.Clone(full)
	flipped[len(full)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(full[:5])
	misChained, err := durable.EncodeWALRecord(testBaseRows+1, batches[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(misChained)
	jsonBody := binary.LittleEndian.AppendUint64(nil, uint64(testBaseRows))
	jsonBody = append(jsonBody, `{"table":"flights","rows":[["AA",1]]}`...)
	jsonFrame := binary.LittleEndian.AppendUint32(nil, uint32(len(jsonBody)))
	jsonFrame = binary.LittleEndian.AppendUint32(jsonFrame, crc32.ChecksumIEEE(jsonBody))
	f.Add(append(jsonFrame, jsonBody...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for path, content := range dirContents(t, tmpl) {
			dst := filepath.Join(dir, strings.TrimPrefix(path, tmpl))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		seg := filepath.Join(dir, "wal", name)
		if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := durable.Inspect(dir, nil, &out); err != nil {
			t.Fatalf("inspect: %v", err)
		}
		before := dirContents(t, dir)

		rec, err := openTestStore(t, dir, durable.Options{}).Recover()
		if err != nil {
			if !errors.Is(err, ingest.ErrFormat) {
				t.Fatalf("recover: %v", err)
			}
			if !reflect.DeepEqual(dirContents(t, dir), before) {
				t.Fatal("a refused recovery changed the data directory")
			}
			return
		}
		kept, err := os.ReadFile(seg)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		var reframed []byte
		version := int64(testBaseRows)
		for _, b := range rec.Batches {
			r, err := durable.EncodeWALRecord(version, b)
			if err != nil {
				t.Fatalf("replayed batch does not encode: %v", err)
			}
			reframed = append(reframed, r...)
			version += int64(b.NumRows())
		}
		if !bytes.Equal(reframed, kept) {
			t.Fatalf("%d replayed records re-frame to %d bytes, recovery kept %d", len(rec.Batches), len(reframed), len(kept))
		}
		if rec.Info.Watermark != version || rec.Info.TruncatedTail != (len(kept) < len(data)) {
			t.Fatalf("recovery info %+v, want watermark %d and truncated %v", rec.Info, version, len(kept) < len(data))
		}
		line := fmt.Sprintf("wal %s: %d records, versions %d..%d, ", name, len(rec.Batches), testBaseRows, version)
		if !strings.Contains(out.String(), line) {
			t.Fatalf("inspect disagrees with recovery, want %q in:\n%s", line, out.String())
		}

		again, err := openTestStore(t, dir, durable.Options{}).Recover()
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if again.Info.TruncatedTail || !reflect.DeepEqual(again.Batches, rec.Batches) {
			t.Fatalf("second recovery: %d batches (truncated %v), want the first's %d untruncated",
				len(again.Batches), again.Info.TruncatedTail, len(rec.Batches))
		}
	})
}
