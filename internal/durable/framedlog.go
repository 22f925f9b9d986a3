package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// The frame and the append discipline the WAL and the state log share:
// see "Framed logs" in the package comment.

// recordHeaderBytes is the fixed frame prefix: length + CRC.
const recordHeaderBytes = 8

// MaxRecordBytes bounds one frame body. Ingest batches are a few thousand
// rows; anything near this limit in a length field is corruption, and
// bounding it keeps a torn length word from asking the decoder for a huge
// allocation.
const MaxRecordBytes = 64 << 20

// appendFrame frames body onto dst.
func appendFrame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// scanFrames hands the body of each frame in data's valid prefix to visit,
// in order, and returns the offset where that prefix ends: at the first
// incomplete frame, implausible length or CRC mismatch, or at the first
// body visit rejects. stop says why, and is nil exactly when all of data
// is valid. It only reads; what to do with an invalid tail is the
// caller's decision.
func scanFrames(data []byte, visit func(off int, body []byte) error) (valid int, stop error) {
	off := 0
	for off < len(data) {
		if len(data)-off < recordHeaderBytes {
			return off, fmt.Errorf("torn/corrupt record at byte %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		body := data[off+recordHeaderBytes:]
		if n > MaxRecordBytes || n > len(body) || crc32.ChecksumIEEE(body[:n]) != sum {
			return off, fmt.Errorf("torn/corrupt record at byte %d", off)
		}
		if err := visit(off, body[:n]); err != nil {
			return off, err
		}
		off += recordHeaderBytes + n
	}
	return off, nil
}

// framedLog is the append side of one file of frames. Not safe for
// concurrent use; its owner serializes access.
type framedLog struct {
	fs   FS
	path string
	// size is the committed bytes: where the next frame starts. At 0 the
	// next append creates the file, truncating whatever is there.
	size   int64
	f      File  // append handle; nil until the next append opens it
	broken error // sticky: a rollback failed, so the tail on disk is unknown
}

// append writes frame and fsyncs it; nil means the frame is committed. A
// failed write or fsync is rolled back, and once a rollback itself fails
// every later append is refused: nothing may be acked off a log whose tail
// is unknown (the next open's torn-tail scan repairs it).
func (l *framedLog) append(frame []byte) error {
	if l.broken != nil {
		return fmt.Errorf("durable: %s unusable after a failed rollback: %w", l.path, l.broken)
	}
	if l.f == nil {
		if err := l.open(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.rollback(err)
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		// The bytes may or may not be durable: not committed either way.
		l.rollback(err)
		return fmt.Errorf("durable: fsync %s: %w", l.path, err)
	}
	l.size += int64(len(frame))
	return nil
}

// open makes the append handle. A log with committed frames is reopened
// for append; an empty one is created, and its directory fsynced before
// any frame depends on the new entry.
func (l *framedLog) open() error {
	if l.size > 0 {
		f, err := l.fs.OpenAppend(l.path)
		if err != nil {
			return fmt.Errorf("durable: reopen %s: %w", l.path, err)
		}
		l.f = f
		return nil
	}
	f, err := l.fs.Create(l.path)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", l.path, err)
	}
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		_ = f.Close()
		_ = l.fs.Remove(l.path)
		return fmt.Errorf("durable: create %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// rollback cuts the file back to its committed size after a failed
// commit. The handle is closed first: truncation does not move an open
// handle's write offset, and writing past it would leave a zero-filled
// hole, so the next append reopens.
func (l *framedLog) rollback(cause error) {
	_ = l.f.Close()
	l.f = nil
	if err := l.fs.Truncate(l.path, l.size); err != nil {
		l.broken = fmt.Errorf("rollback after %v: %w", cause, err)
	}
}

// sync fsyncs the open handle, if any.
func (l *framedLog) sync() error {
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// close releases the append handle; the next append reopens.
func (l *framedLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
