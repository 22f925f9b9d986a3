// Package wire holds the primitives of the binary formats: the
// bounds-checked reader every snapshot decoder (query.Result, engine.Partial,
// the server's snapshot frame) parses socket bytes through, and the
// checkpoint segment decoder (dataset.DecodeSegment) disk bytes, plus the
// raw IEEE-754 column append the snapshot encoders share. Snapshot integers
// are varints (zig-zag when signed); segment integers are fixed-width
// little-endian (Uint16, Uint32, Uint64). Floats travel as their
// little-endian bit patterns, so ±Inf, NaN payloads and -0 cross unchanged.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort reports input that ends inside a field, or a count that announces
// more elements than the remaining bytes could hold.
var ErrShort = errors.New("wire: truncated or oversized input")

// ErrVarint reports a varint longer than 64 bits.
var ErrVarint = errors.New("wire: malformed varint")

// Reader consumes one encoded message front to back. The first failure
// sticks: every later read returns zero values, so a decoder reads its whole
// layout linearly and checks Err once — before trusting anything it read.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b. Only Take's result aliases b; everything else is
// returned by value.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, nil while every read so far was in bounds.
func (r *Reader) Err() error { return r.err }

// Len is the number of unread bytes (0 after a failure).
func (r *Reader) Len() int { return len(r.b) }

// Fail records err as the reader's failure unless one is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// Take returns the next n bytes, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail(ErrShort)
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint16 reads one fixed-width little-endian uint16.
func (r *Reader) Uint16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// Uint32 reads one fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads one fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n > 0:
		r.b = r.b[n:]
		return v
	case n == 0:
		r.Fail(ErrShort)
	default:
		r.Fail(ErrVarint)
	}
	return 0
}

// Varint reads one zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count whose elements occupy at least minBytes
// encoded bytes each, and refuses one the unread input could not hold — so a
// decoder may size an allocation by the returned count without trusting the
// header: the count is bounded by the frame's own length.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.Fail(ErrShort)
		return 0
	}
	return int(v)
}

// Float64 reads one raw little-endian IEEE-754 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Float64s fills dst from the next 8·len(dst) bytes.
func (r *Reader) Float64s(dst []float64) {
	if len(dst) > len(r.b)/8 {
		r.Fail(ErrShort)
		return
	}
	b := r.Take(8 * len(dst))
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// AppendFloat64s appends vs as raw little-endian IEEE-754 bit patterns.
func AppendFloat64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
