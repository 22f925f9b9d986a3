package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	floats := []float64{1.5, math.Inf(-1), math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)}
	b := []byte{0xAB}
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -77)
	b = AppendFloat64s(b, floats)
	b = append(b, "tail"...)

	r := NewReader(b)
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -77 {
		t.Errorf("Varint = %d", got)
	}
	first := r.Float64()
	rest := make([]float64, len(floats)-1)
	r.Float64s(rest)
	for i, got := range append([]float64{first}, rest...) {
		if math.Float64bits(got) != math.Float64bits(floats[i]) {
			t.Errorf("float %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(floats[i]))
		}
	}
	if got := r.Take(r.Len()); !bytes.Equal(got, []byte("tail")) || r.Err() != nil || r.Len() != 0 {
		t.Errorf("Take = %q, err %v, %d left", got, r.Err(), r.Len())
	}
}

// The first failure sticks, later reads return zero values, and Count
// refuses what the remaining bytes could not hold.
func TestReaderFailures(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.Take(4) != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("over-long Take: err %v", r.Err())
	}
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Float64() != 0 || r.Len() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Error("reads after a failure returned data or changed the error")
	}

	r = NewReader(bytes.Repeat([]byte{0xFF}, 11)) // an 11-byte varint overflows 64 bits
	if r.Uvarint(); !errors.Is(r.Err(), ErrVarint) {
		t.Errorf("overflowing varint: err %v", r.Err())
	}
	r = NewReader([]byte{0x80}) // continuation bit, then nothing
	if r.Varint(); !errors.Is(r.Err(), ErrShort) {
		t.Errorf("truncated varint: err %v", r.Err())
	}

	count := binary.AppendUvarint(nil, 3)
	r = NewReader(append(count, make([]byte, 3*8)...))
	if n := r.Count(8); n != 3 || r.Err() != nil {
		t.Errorf("Count of 3 over 24 bytes = %d, err %v", n, r.Err())
	}
	r = NewReader(append(count, make([]byte, 3*8-1)...))
	if n := r.Count(8); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Errorf("Count of 3 over 23 bytes = %d, err %v", n, r.Err())
	}
	r = NewReader(binary.AppendUvarint(nil, math.MaxUint64))
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Errorf("Count of 2^64-1 = %d, err %v", n, r.Err())
	}
	r = NewReader(make([]byte, 15))
	if r.Float64s(make([]float64, 2)); !errors.Is(r.Err(), ErrShort) {
		t.Errorf("two floats out of 15 bytes: err %v", r.Err())
	}
}
