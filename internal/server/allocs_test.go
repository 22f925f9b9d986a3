//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only meaningful — and this file only built — without it.

package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"
)

// sinkConn is a net.Conn that swallows writes, keeping the last one.
type sinkConn struct {
	net.Conn // nil: only Write is called
	last     []byte
	writes   int
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.last = append(c.last[:0], p...)
	c.writes++
	return len(p), nil
}

// TestSnapshotWriteAllocs pins the server's steady-state send path: encoding
// a snapshot into the connection's frame buffer and framing it in place is
// one conn.Write and no allocation.
func TestSnapshotWriteAllocs(t *testing.T) {
	sink := &sinkConn{}
	ws := &WSConn{conn: sink}
	res, partial := benchShape(25, 2, false)
	for name, m := range map[string]*ServerMsg{
		"result":  {Type: MsgSnapshot, ID: 7, Seq: 3, Final: true, Result: res},
		"partial": {Type: MsgSnapshot, ID: 7, Seq: 3, Partial: partial},
	} {
		frame := make([]byte, wsHeadroom, 4096)
		send := func() {
			frame = appendSnapshot(frame[:wsHeadroom], m)
			if err := ws.WriteBinary(frame); err != nil {
				t.Fatal(err)
			}
		}
		send() // warm the sort scratch and the sink
		sink.writes = 0
		if allocs := testing.AllocsPerRun(20, send); allocs != 0 {
			t.Errorf("%s: %v allocations per warmed snapshot write, want 0", name, allocs)
		}
		if sink.writes != 21 {
			t.Errorf("%s: %d conn.Write calls for 21 frames", name, sink.writes)
		}
		// What left is a well-formed unmasked frame around the encoding.
		payload := frame[wsHeadroom:]
		if n := len(payload); n < 126 || n > 0xFFFF || sink.last[0] != 0x80|opBinary || sink.last[1] != 126 ||
			int(sink.last[2])<<8|int(sink.last[3]) != n || !bytes.Equal(sink.last[4:], payload) {
			t.Errorf("%s: malformed frame header % x for %d payload bytes", name, sink.last[:4], len(payload))
		}
	}
}

// TestFrameReadAllocs pins the client's steady-state receive path: reading an
// unfragmented frame into the connection's read buffer allocates nothing in
// ws.go (the decoder's slabs are the message's own).
func TestFrameReadAllocs(t *testing.T) {
	res, _ := benchShape(25, 2, false)
	sink := &sinkConn{}
	if err := (&WSConn{conn: sink}).WriteBinary(appendSnapshot(make([]byte, wsHeadroom), &ServerMsg{Type: MsgSnapshot, ID: 1, Seq: 1, Result: res})); err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewReader(nil)
	ws := &WSConn{br: bufio.NewReader(stream), client: true}
	read := func() {
		stream.Reset(sink.last)
		op, data, err := ws.ReadMessage()
		if err != nil || op != opBinary || len(data) != len(sink.last)-4 {
			t.Fatalf("read: opcode %d, %d bytes, err %v", op, len(data), err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Errorf("%v allocations per warmed frame read, want 0", allocs)
	}
}
