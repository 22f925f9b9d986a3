package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"idebench/internal/ingest"
)

// WAL record framing (see the package comment for the full layout):
//
//	u32 body length | u32 CRC-32 (IEEE) of body | body
//	body = u64 previous data version | binary ingest batch
//
// The frame is deliberately minimal — the batch payload is the ingest
// codec's binary form (ingest/binary.go), the same bytes the ingest frame
// carries, already fuzzed (FuzzIngestRecord). A CRC-valid body whose batch is
// of another format is not damage: recovery refuses it instead of
// truncating it.

// recordHeaderBytes is the fixed frame prefix: length + CRC.
const recordHeaderBytes = 8

// MaxRecordBytes bounds one WAL record body. Ingest batches are a few
// thousand rows; anything near this limit in a length field is corruption,
// and bounding it keeps a torn length word from asking the decoder for a
// huge allocation.
const MaxRecordBytes = 64 << 20

// WALRecord is one decoded WAL entry: the batch and the data version the
// log was at before it (the version chain replay verifies).
type WALRecord struct {
	PrevVersion int64
	Batch       *ingest.Batch
}

// errTornRecord marks an incomplete or corrupt frame. Inside scanSegment it
// means "valid data ends here": a torn tail to truncate, not data to apply.
var errTornRecord = errors.New("durable: torn or corrupt wal record")

// appendWALRecord frames body onto dst.
func appendWALRecord(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// appendWALBody appends one record body; b must be valid.
func appendWALBody(dst []byte, prevVersion int64, b *ingest.Batch) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(prevVersion))
	return b.AppendBinary(dst)
}

// DecodeWALBody parses one record body. It never panics on arbitrary
// bytes (FuzzWALRecord's contract) and fully validates the embedded batch;
// a batch of another format fails with an error wrapping ingest.ErrFormat.
func DecodeWALBody(body []byte) (WALRecord, error) {
	if len(body) < 8 {
		return WALRecord{}, fmt.Errorf("durable: wal record body %d bytes, want >= 8", len(body))
	}
	prev := int64(binary.LittleEndian.Uint64(body))
	if prev < 0 {
		return WALRecord{}, fmt.Errorf("durable: wal record: negative previous version %d", prev)
	}
	b, err := ingest.DecodeBatch(body[8:])
	if err != nil {
		return WALRecord{}, fmt.Errorf("durable: wal record: %w", err)
	}
	return WALRecord{PrevVersion: prev, Batch: b}, nil
}

// EncodeWALRecord validates b and frames its record; exported for the fuzz
// harness and the tests, which build valid records standalone.
func EncodeWALRecord(prevVersion int64, b *ingest.Batch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("durable: encode wal record: %w", err)
	}
	return appendWALRecord(nil, appendWALBody(nil, prevVersion, b)), nil
}

// nextWALRecord cuts the frame starting at data[off], returning the body
// and the offset just past the record. Any incomplete frame, implausible
// length, or CRC mismatch returns errTornRecord — the caller treats off as
// the end of valid data.
func nextWALRecord(data []byte, off int) (body []byte, next int, err error) {
	if off+recordHeaderBytes > len(data) {
		return nil, off, errTornRecord
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n > MaxRecordBytes || off+recordHeaderBytes+n > len(data) {
		return nil, off, errTornRecord
	}
	body = data[off+recordHeaderBytes : off+recordHeaderBytes+n]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, off, errTornRecord
	}
	return body, off + recordHeaderBytes + n, nil
}
