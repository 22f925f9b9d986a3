package durable

import (
	"encoding/binary"
	"fmt"

	"idebench/internal/ingest"
)

// A WAL record is one frame (see "Framed logs" in the package comment)
// whose body is
//
//	u64 previous data version | binary ingest batch
//
// The batch payload is the ingest codec's binary form (ingest/binary.go),
// the same bytes the ingest frame carries, already fuzzed
// (FuzzIngestRecord). A CRC-valid body whose batch is of another format is
// not damage: recovery refuses it instead of truncating it.

// WALRecord is one decoded WAL entry: the batch and the data version the
// log was at before it (the version chain replay verifies).
type WALRecord struct {
	PrevVersion int64
	Batch       *ingest.Batch
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
	return appendFrame(nil, appendWALBody(nil, prevVersion, b)), nil
}
