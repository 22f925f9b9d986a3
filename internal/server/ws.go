// Minimal RFC 6455 WebSocket transport. The repo is dependency-free by
// policy, so the serving layer carries its own framing: text and binary
// messages, client-to-server masking, ping/pong keepalive and close handshake
// — the subset the idebench wire protocol needs, not a general-purpose
// library.
package server

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"
)

// wsGUID is the fixed RFC 6455 handshake GUID.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// maxMessageBytes bounds a single WebSocket message; a snapshot for a 2D
// binned visualization is a few hundred KB at most, so anything beyond this
// is a protocol violation, not a big result.
const maxMessageBytes = 64 << 20

// WebSocket opcodes (RFC 6455 Sec. 5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// ErrWSClosed is returned by reads and writes after the connection closed
// (either peer sent a close frame, or Close was called locally).
var ErrWSClosed = errors.New("server: websocket closed")

// Close codes the idebench protocol attaches to close frames so a peer can
// tell WHY it was hung up on, not just that it was. 1001 is the RFC 6455
// "going away" code; the 4xxx range is reserved for application use.
const (
	// CloseGoingAway: the server is draining and will not come back on this
	// address; reconnecting is pointless (terminal).
	CloseGoingAway uint16 = 1001
	// CloseIdleTimeout: the peer failed the read-side liveness deadline (no
	// frame, ping or pong inside the server's idle timeout). The connection
	// state is gone but the server is healthy — reconnecting is reasonable.
	CloseIdleTimeout uint16 = 4408
	// CloseTryLater: the server refused the connection for capacity reasons
	// after the upgrade already succeeded (the connection cap filled during
	// the handshake). Transient — reconnecting with backoff is reasonable.
	CloseTryLater uint16 = 4503
	// CloseOverflow: the peer queued final frames faster than it read them
	// for longer than the write timeout — a protocol abuse, not a transient
	// condition (terminal).
	CloseOverflow uint16 = 4413
)

// CloseError is the error ReadMessage returns when the peer's close frame
// carried a status code, preserving the code and reason for classification
// (retryable vs terminal — see IsRetryable).
type CloseError struct {
	Code   uint16
	Reason string
}

func (e *CloseError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("server: websocket closed by peer (code %d)", e.Code)
	}
	return fmt.Sprintf("server: websocket closed by peer (code %d: %s)", e.Code, e.Reason)
}

// wsHeadroom is the longest frame header: two bytes, an eight-byte extended
// length and a four-byte mask key. A frame buffer reserves that much in front
// of its payload so the header can be written where it will be sent from.
const wsHeadroom = 14

// maxControlBytes is the RFC 6455 limit on a control frame's payload.
const maxControlBytes = 125

// WSConn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialized and may come from any
// goroutine (the connection writer, and the reader answering pings).
type WSConn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client side masks outgoing frames
	// idle, when set, is re-armed as a read deadline before every frame so
	// any inbound traffic (data, ping, pong) proves liveness.
	idle time.Duration

	// Reader-owned scratch: rbuf holds the unfragmented message ReadMessage
	// last returned, hdr a frame header's extended length and mask key while
	// they are parsed, ctl a control frame's payload while it is answered.
	rbuf []byte
	hdr  [12]byte
	ctl  [maxControlBytes]byte

	wmu    sync.Mutex
	closed bool
	// wbuf frames the payloads of WriteMessage, pings, pongs and closes:
	// headroom, then a copy of the payload. Guarded by wmu.
	wbuf []byte
}

// ReadMessage returns the next complete message's opcode (opText or
// opBinary) and payload, transparently answering pings and completing the
// close handshake. The payload of an unfragmented message lives in the
// connection's read buffer and is valid only until the next ReadMessage.
func (c *WSConn) ReadMessage() (op byte, payload []byte, err error) {
	var msg []byte // accumulates a fragmented message; nil between messages
	for {
		fin, opcode, length, mask, err := c.readHeader()
		if err != nil {
			return 0, nil, err
		}
		switch opcode {
		case opPing, opPong, opClose:
			if !fin || length > maxControlBytes {
				return 0, nil, fmt.Errorf("server: malformed websocket control frame (opcode %#x, %d bytes)", opcode, length)
			}
			ctl := c.ctl[:length]
			if err := c.readPayload(ctl, mask); err != nil {
				return 0, nil, err
			}
			switch opcode {
			case opPing:
				if err := c.writeFrame(opPong, ctl); err != nil {
					return 0, nil, err
				}
			case opClose:
				c.writeClose()
				if len(ctl) >= 2 {
					return 0, nil, &CloseError{Code: binary.BigEndian.Uint16(ctl), Reason: string(ctl[2:])}
				}
				return 0, nil, ErrWSClosed
			}
			// Unsolicited pongs are legal no-ops.
		case opText, opBinary:
			if msg != nil {
				return 0, nil, errors.New("server: websocket data frame inside a fragmented message")
			}
			if fin {
				c.rbuf = slices.Grow(c.rbuf[:0], length)[:length]
				if err := c.readPayload(c.rbuf, mask); err != nil {
					return 0, nil, err
				}
				return opcode, c.rbuf, nil
			}
			op = opcode
			msg = make([]byte, length)
			if err := c.readPayload(msg, mask); err != nil {
				return 0, nil, err
			}
		case opContinuation:
			if msg == nil {
				return 0, nil, errors.New("server: websocket continuation frame without a message to continue")
			}
			if len(msg)+length > maxMessageBytes {
				return 0, nil, fmt.Errorf("server: websocket message exceeds %d bytes", maxMessageBytes)
			}
			msg = append(msg, make([]byte, length)...)
			if err := c.readPayload(msg[len(msg)-length:], mask); err != nil {
				return 0, nil, err
			}
			if fin {
				return op, msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("server: unknown websocket opcode %#x", opcode)
		}
	}
}

// WriteMessage sends one text message as a single unfragmented frame.
func (c *WSConn) WriteMessage(payload []byte) error {
	return c.writeFrame(opText, payload)
}

// WriteBinary sends frame[wsHeadroom:] as one unfragmented binary message.
// The caller encoded its payload behind wsHeadroom reserved bytes; the header
// is written backwards into that room, so header and payload leave in one
// conn.Write without being copied. The client side masks the payload in
// place.
func (c *WSConn) WriteBinary(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrWSClosed
	}
	return c.writeInPlaceLocked(opBinary, frame)
}

// WritePing sends a ping frame; the peer's ReadMessage answers with a pong
// transparently, so any live peer resets its sender's idle deadline.
func (c *WSConn) WritePing() error {
	return c.writeFrame(opPing, nil)
}

// SetIdleTimeout arms read-side liveness: every frame read (including the
// pongs elicited by WritePing) must arrive within d of the previous one or
// ReadMessage fails with a timeout error. 0 disables.
func (c *WSConn) SetIdleTimeout(d time.Duration) { c.idle = d }

// CloseWith performs the closing handshake carrying a status code and reason
// (RFC 6455 Sec. 5.5.1), then tears the connection down. Idempotent with
// Close: whichever runs first sends its close frame.
func (c *WSConn) CloseWith(code uint16, reason string) error {
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	c.wmu.Lock()
	if !c.closed {
		c.closed = true
		payload := make([]byte, 2, 2+len(reason))
		binary.BigEndian.PutUint16(payload, code)
		// Close reasons are capped at 123 bytes by the control-frame limit.
		if len(reason) > 123 {
			reason = reason[:123]
		}
		payload = append(payload, reason...)
		_ = c.writeFrameLocked(opClose, payload)
	}
	c.wmu.Unlock()
	return c.conn.Close()
}

// Close performs the closing handshake from this side and tears the
// underlying connection down. Idempotent.
func (c *WSConn) Close() error {
	// Bound the wait for wmu: a peer that stopped reading can leave another
	// goroutine stalled inside conn.Write holding the lock, and Close must
	// not deadlock behind it (server drains rely on Close completing). The
	// deadline unblocks any such write within a second; the close frame is
	// best-effort either way.
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	c.writeClose()
	return c.conn.Close()
}

// SetReadDeadline bounds the next ReadMessage.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline bounds subsequent writes. The server sets one per frame
// so a client that stops reading cannot park a writer goroutine forever.
func (c *WSConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// writeClose sends the close frame once.
func (c *WSConn) writeClose() {
	c.wmu.Lock()
	if !c.closed {
		c.closed = true
		// Best-effort: the peer may already be gone.
		_ = c.writeFrameLocked(opClose, nil)
	}
	c.wmu.Unlock()
}

// readHeader reads one frame's header: the payload that follows is length
// bytes, masked with mask when mask is non-nil.
func (c *WSConn) readHeader() (fin bool, opcode byte, length int, mask []byte, err error) {
	if c.idle > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	hdr := c.hdr[:2]
	if _, err = io.ReadFull(c.br, hdr); err != nil {
		return false, 0, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, 0, nil, errors.New("server: websocket RSV bits set without extension")
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	n := uint64(hdr[1] & 0x7F)
	switch n {
	case 126:
		ext := c.hdr[:2]
		if _, err = io.ReadFull(c.br, ext); err != nil {
			return false, 0, 0, nil, err
		}
		n = uint64(binary.BigEndian.Uint16(ext))
	case 127:
		ext := c.hdr[:8]
		if _, err = io.ReadFull(c.br, ext); err != nil {
			return false, 0, 0, nil, err
		}
		n = binary.BigEndian.Uint64(ext)
	}
	if n > maxMessageBytes {
		return false, 0, 0, nil, fmt.Errorf("server: websocket frame of %d bytes exceeds limit", n)
	}
	if masked {
		mask = c.hdr[8:12]
		if _, err = io.ReadFull(c.br, mask); err != nil {
			return false, 0, 0, nil, err
		}
	}
	return fin, opcode, int(n), mask, nil
}

// readPayload fills dst with the frame's payload, unmasking if needed.
func (c *WSConn) readPayload(dst []byte, mask []byte) error {
	if _, err := io.ReadFull(c.br, dst); err != nil {
		return err
	}
	if mask != nil {
		for i := range dst {
			dst[i] ^= mask[i&3]
		}
	}
	return nil
}

// writeFrame sends one complete frame, masking when this is the client side.
func (c *WSConn) writeFrame(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrWSClosed
	}
	return c.writeFrameLocked(opcode, payload)
}

// writeFrameLocked frames a copy of payload in the connection's write buffer.
func (c *WSConn) writeFrameLocked(opcode byte, payload []byte) error {
	if c.wbuf == nil {
		c.wbuf = make([]byte, wsHeadroom, 512)
	}
	c.wbuf = append(c.wbuf[:wsHeadroom], payload...)
	return c.writeInPlaceLocked(opcode, c.wbuf)
}

// writeInPlaceLocked sends frame[wsHeadroom:] as one frame, writing the
// header into the end of frame[:wsHeadroom].
func (c *WSConn) writeInPlaceLocked(opcode byte, frame []byte) error {
	// Header and payload go out in ONE Write: two small writes per frame
	// would interact with Nagle + delayed ACK into ~40ms stalls per frame,
	// which is fatal for a protocol whose deadlines are single-digit ms.
	payload := frame[wsHeadroom:]
	at := wsHeadroom
	maskBit := byte(0)
	if c.client {
		at -= 4
		key := frame[at:wsHeadroom]
		if _, err := rand.Read(key); err != nil {
			return err
		}
		for i := range payload {
			payload[i] ^= key[i&3]
		}
		maskBit = 0x80
	}
	switch n := len(payload); {
	case n < 126:
		at -= 2
		frame[at+1] = maskBit | byte(n)
	case n <= 0xFFFF:
		at -= 4
		frame[at+1] = maskBit | 126
		binary.BigEndian.PutUint16(frame[at+2:], uint16(n))
	default:
		at -= 10
		frame[at+1] = maskBit | 127
		binary.BigEndian.PutUint64(frame[at+2:], uint64(n))
	}
	frame[at] = 0x80 | opcode
	_, err := c.conn.Write(frame[at:])
	return err
}

// setNoDelay disables Nagle on TCP transports: snapshot frames are small
// and latency-critical (the driver's time requirements are milliseconds).
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// wsAccept computes the Sec-WebSocket-Accept value for a handshake key.
func wsAccept(key string) string {
	sum := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(sum[:])
}

// upgradeWS performs the server half of the opening handshake and hijacks
// the HTTP connection. On failure it has already written an HTTP error.
func upgradeWS(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if !headerContainsToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket upgrade required", http.StatusUpgradeRequired)
		return nil, errors.New("server: not a websocket upgrade request")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, errors.New("server: unsupported websocket version")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("server: missing websocket key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return nil, errors.New("server: response writer is not hijackable")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("server: hijack: %w", err)
	}
	setNoDelay(conn)
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake response: %w", err)
	}
	return &WSConn{conn: conn, br: rw.Reader}, nil
}

// rejectReasonHeader names the handshake-rejection reason the server
// attaches to pre-upgrade 503s, so clients can tell a transient full house
// (retryable, with a Retry-After hint) from a terminal drain.
const rejectReasonHeader = "X-Idebench-Reason"

// Handshake-rejection reasons.
const (
	// ReasonOverloaded: the connection cap is reached; retry after the hint.
	ReasonOverloaded = "overloaded"
	// ReasonDraining: the server is shutting down; do not retry.
	ReasonDraining = "draining"
)

// HandshakeError is a WebSocket upgrade rejected at the HTTP layer, carrying
// the status, the server's stated reason, and its Retry-After hint (0 when
// absent — a terminal rejection).
type HandshakeError struct {
	Status     int
	Reason     string
	RetryAfter time.Duration
}

func (e *HandshakeError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("server: handshake rejected: %d (%s)", e.Status, e.Reason)
	}
	return fmt.Sprintf("server: handshake rejected: %d", e.Status)
}

// headerContainsToken reports whether a comma-separated header contains the
// token (case-insensitive); "Connection: keep-alive, Upgrade" must match.
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// dialWS performs the client half of the opening handshake against a
// ws://host:port/path URL.
func dialWS(rawURL string, timeout time.Duration) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("server: dial %q: %w", rawURL, err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("server: dial %q: only ws:// is supported", rawURL)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Host, "80")
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", host, err)
	}
	setNoDelay(conn)
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	path := u.Path
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake request: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake response: %w", err)
	}
	// 101 responses have no body; anything buffered past the header block is
	// already WebSocket framing and stays in br.
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		he := &HandshakeError{Status: resp.StatusCode, Reason: resp.Header.Get(rejectReasonHeader)}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			var secs int
			if _, err := fmt.Sscanf(ra, "%d", &secs); err == nil && secs >= 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, he
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != wsAccept(key) {
		conn.Close()
		return nil, fmt.Errorf("server: handshake accept mismatch %q", got)
	}
	return &WSConn{conn: conn, br: br, client: true}, nil
}
