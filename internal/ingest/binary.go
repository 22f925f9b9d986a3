package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"idebench/internal/dataset"
	"idebench/internal/wire"
)

// The binary form of a Batch is its only encoding: the client→server ingest
// frame and the write-ahead log's record body are exactly these bytes.
//
//	byte     batchTag (kind 4, codec version 1)
//	uvarint  table name length, then its bytes
//	varint   seq
//	uvarint  rows, columns
//	per column, in schema field order:
//	  byte   kind: colNum | colStr
//	  colNum rows raw little-endian IEEE-754 values
//	  colStr uvarint dictionary length; per value a uvarint length and its
//	         bytes; then rows uvarint codes
//
// Every count is bounded by the bytes that remain before anything is sized
// from it. The decoder accepts exactly what Validate accepts — finite
// numbers, canonical dictionaries — so decode∘encode is the identity and
// equal batches have equal bytes. Floats are bit patterns: -0 crosses
// unchanged.
const batchTag = 0x41

// Column kinds on the wire.
const (
	colNum = 1
	colStr = 2
)

// ErrFormat marks bytes that are not a batch of this codec at all — a JSON
// document, or another tag — as opposed to a damaged one.
var ErrFormat = errors.New("ingest: not a binary batch")

// AppendBinary appends the binary form of b to dst. It does not validate:
// encode a batch Validate accepts (Encode does both), or the decoder will
// refuse the bytes.
func (b *Batch) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, b.maxBinarySize())
	dst = append(dst, batchTag)
	dst = binary.AppendUvarint(dst, uint64(len(b.Table)))
	dst = append(dst, b.Table...)
	dst = binary.AppendVarint(dst, b.Seq)
	dst = binary.AppendUvarint(dst, uint64(b.NumRows()))
	dst = binary.AppendUvarint(dst, uint64(len(b.Columns)))
	for j := range b.Columns {
		c := &b.Columns[j]
		if c.Kind != dataset.Nominal {
			dst = append(dst, colNum)
			dst = wire.AppendFloat64s(dst, c.Nums)
			continue
		}
		dst = append(dst, colStr)
		dst = binary.AppendUvarint(dst, uint64(len(c.Dict)))
		for _, v := range c.Dict {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
		for _, k := range c.Codes {
			dst = binary.AppendUvarint(dst, uint64(k))
		}
	}
	return dst
}

// maxBinarySize bounds the length of b's binary form, so an append grows its
// buffer at most once.
func (b *Batch) maxBinarySize() int {
	n := 1 + 4*binary.MaxVarintLen64 + len(b.Table)
	for j := range b.Columns {
		c := &b.Columns[j]
		n += 1 + 8*len(c.Nums) + binary.MaxVarintLen64 + binary.MaxVarintLen32*len(c.Codes)
		for _, v := range c.Dict {
			n += binary.MaxVarintLen64 + len(v)
		}
	}
	return n
}

// Encode validates the batch and returns its binary form.
func (b *Batch) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: encode batch: %w", err)
	}
	return b.AppendBinary(nil), nil
}

// batchLayout is what a binary batch's header says about its body, once the
// whole encoding has been checked against it.
type batchLayout struct {
	table      []byte
	seq        int64
	rows, cols int
	nums, strs int // columns of each kind
	dictValues int // dictionary entries over all nominal columns
	dictBytes  int // their bytes
	maxDict    int // the longest dictionary
	body       []byte
}

// scanBatch checks data end to end — tag, every count against the bytes
// that remain, finite numbers, canonical codes, no trailing bytes — without
// allocating, so that a layout it returns can be filled without a further
// bounds check.
func scanBatch(data []byte) (batchLayout, error) {
	var l batchLayout
	if len(data) > 0 && data[0] != batchTag {
		if data[0] == '{' {
			return l, fmt.Errorf("%w: a JSON batch document", ErrFormat)
		}
		return l, fmt.Errorf("%w: tag %#x, want %#x", ErrFormat, data[0], batchTag)
	}
	rd := wire.NewReader(data)
	rd.Byte()
	l.table = rd.Take(rd.Count(1))
	l.seq = rd.Varint()
	// Every column spends at least a byte per row, and a kind byte.
	l.rows = rd.Count(1)
	l.cols = rd.Count(1 + l.rows)
	l.body = rd.Take(rd.Len())
	if err := rd.Err(); err != nil {
		return l, fmt.Errorf("ingest: decode batch: %w", err)
	}
	switch {
	case len(l.table) == 0:
		return l, fmt.Errorf("ingest: batch without table")
	case l.cols == 0:
		return l, fmt.Errorf("ingest: batch rows have no columns")
	case l.rows == 0:
		return l, fmt.Errorf("ingest: batch with no rows")
	}
	body := wire.NewReader(l.body)
	for j := 0; j < l.cols; j++ {
		switch kind := body.Byte(); kind {
		case colNum:
			if l.rows > body.Len()/8 {
				body.Fail(wire.ErrShort)
				break
			}
			vals := body.Take(8 * l.rows)
			for i := 0; i < l.rows; i++ {
				if f := math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])); !finite(f) {
					return l, fmt.Errorf("ingest: column %d row %d: %v is not a finite number", j, i, f)
				}
			}
			l.nums++
		case colStr:
			n := body.Count(1)
			for k := 0; k < n; k++ {
				v := body.Take(body.Count(1))
				l.dictBytes += len(v)
			}
			order := firstUse{n: uint64(n)}
			for i := 0; i < l.rows && body.Err() == nil; i++ {
				if err := order.add(i, body.Uvarint()); err != nil {
					return l, fmt.Errorf("ingest: column %d: %w", j, err)
				}
			}
			if err := order.done(); body.Err() == nil && err != nil {
				return l, fmt.Errorf("ingest: column %d: %w", j, err)
			}
			l.strs++
			l.dictValues += n
			l.maxDict = max(l.maxDict, n)
		default:
			if body.Err() == nil {
				return l, fmt.Errorf("ingest: column %d has unknown kind %#x", j, kind)
			}
		}
	}
	if err := body.Err(); err != nil {
		return l, fmt.Errorf("ingest: decode batch: %w", err)
	}
	if body.Len() != 0 {
		return l, fmt.Errorf("ingest: decode batch: %d bytes after the last column", body.Len())
	}
	return l, nil
}

// DecodeBatch decodes one binary batch. Bytes of another format fail with
// an error wrapping ErrFormat. The batch owns its memory — nothing aliases
// data — and takes a fixed number of allocations whatever its size: one
// float slab, one code slab, one string backing the table name and every
// dictionary value, and the dictionaries' string headers.
func DecodeBatch(data []byte) (*Batch, error) {
	l, err := scanBatch(data)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.Grow(len(l.table) + l.dictBytes)
	sb.Write(l.table)
	for rd := wire.NewReader(l.body); rd.Len() > 0; {
		if rd.Byte() == colNum {
			rd.Take(8 * l.rows)
			continue
		}
		for k := rd.Uvarint(); k > 0; k-- {
			sb.Write(rd.Take(int(rd.Uvarint())))
		}
		for i := 0; i < l.rows; i++ {
			rd.Uvarint()
		}
	}
	text := sb.String()
	b := &Batch{Table: text[:len(l.table)], Seq: l.seq, Columns: make([]Column, l.cols)}
	text = text[len(l.table):]
	nums := make([]float64, l.nums*l.rows)
	codes := make([]uint32, l.strs*l.rows)
	dicts := make([]string, l.dictValues+l.maxDict) // the tail is checkDistinct's scratch
	scratch := dicts[l.dictValues:]
	rd := wire.NewReader(l.body)
	for j := range b.Columns {
		c := &b.Columns[j]
		if rd.Byte() == colNum {
			c.Kind = dataset.Quantitative
			c.Nums, nums = nums[:l.rows:l.rows], nums[l.rows:]
			rd.Float64s(c.Nums)
			continue
		}
		c.Kind = dataset.Nominal
		n := int(rd.Uvarint())
		c.Dict, dicts = dicts[:n:n], dicts[n:]
		for k := range c.Dict {
			size := int(rd.Uvarint())
			rd.Take(size)
			c.Dict[k], text = text[:size], text[size:]
		}
		c.Codes, codes = codes[:l.rows:l.rows], codes[l.rows:]
		for i := range c.Codes {
			c.Codes[i] = uint32(rd.Uvarint())
		}
		if err := checkDistinct(append(scratch[:0], c.Dict...)); err != nil {
			return nil, fmt.Errorf("ingest: column %d: %w", j, err)
		}
	}
	return b, nil
}
