package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// echoServer upgrades and echoes every message back until the peer closes.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := upgradeWS(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		for {
			op, msg, err := ws.ReadMessage()
			if err != nil {
				return
			}
			// Echo in kind: text through the copying path, binary through
			// the in-place one (which wants headroom before the payload).
			if op == opBinary {
				err = ws.WriteBinary(append(make([]byte, wsHeadroom), msg...))
			} else {
				err = ws.WriteMessage(msg)
			}
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http") + "/ws"
}

// TestWSEcho exercises the full handshake plus framing at every length
// class: 7-bit, 16-bit extended (>125) and 64-bit extended (>64KB) payloads,
// all masked client→server and unmasked server→client.
func TestWSEcho(t *testing.T) {
	srv := echoServer(t)
	c, err := dialWS(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sizes := []int{0, 1, 125, 126, 4096, 65535, 65536, 200_000}
	for _, n := range sizes {
		msg := bytes.Repeat([]byte{0xA5}, n)
		if n > 0 {
			msg[0] = 'x' // not all-identical, so mask bugs can't cancel out
		}
		if err := c.WriteMessage(msg); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("read %d bytes: %v", n, err)
		}
		if op != opText || !bytes.Equal(got, msg) {
			t.Fatalf("echo mismatch at %d bytes: opcode %d, %d bytes back", n, op, len(got))
		}
		// The same payload as a binary frame, written in place: the client
		// side masks the caller's buffer, so it gets a copy.
		frame := append(make([]byte, wsHeadroom), msg...)
		if err := c.WriteBinary(frame); err != nil {
			t.Fatalf("binary write %d bytes: %v", n, err)
		}
		if op, got, err = c.ReadMessage(); err != nil || op != opBinary || !bytes.Equal(got, msg) {
			t.Fatalf("binary echo mismatch at %d bytes: opcode %d, %d bytes back, err %v", n, op, len(got), err)
		}
	}
}

// TestWSFragmentedMessage: a message split over continuation frames, with a
// ping between the fragments, is reassembled under its first frame's opcode.
func TestWSFragmentedMessage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := upgradeWS(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		ws.conn.Write([]byte{opBinary, 3, 'a', 'b', 'c'})  // FIN clear
		ws.conn.Write([]byte{0x80 | opPing, 1, '!'})       // control frame mid-message
		ws.conn.Write([]byte{opContinuation, 2, 'd', 'e'}) // FIN clear
		ws.conn.Write([]byte{0x80 | opContinuation, 1, 'f'})
		ws.conn.Write([]byte{0x80 | opContinuation, 1, 'x'}) // continues nothing
		ws.ReadMessage()
	}))
	defer srv.Close()
	c, err := dialWS(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, got, err := c.ReadMessage()
	if err != nil || op != opBinary || string(got) != "abcdef" {
		t.Fatalf("fragmented message: opcode %d, %q, err %v", op, got, err)
	}
	if _, _, err := c.ReadMessage(); err == nil {
		t.Fatal("stray continuation frame accepted")
	}
}

// TestWSPing asserts the read loop answers pings transparently while
// delivering data messages.
func TestWSPing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := upgradeWS(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		// Ping first; the client must answer with a pong carrying the same
		// payload before we hand it the data message.
		if err := ws.writeFrame(opPing, []byte("heartbeat")); err != nil {
			return
		}
		fin, opcode, length, mask, err := ws.readHeader()
		payload := make([]byte, length)
		if err == nil {
			err = ws.readPayload(payload, mask)
		}
		if err != nil || !fin || opcode != opPong || string(payload) != "heartbeat" {
			ws.WriteMessage([]byte("bad pong"))
			return
		}
		ws.WriteMessage([]byte("ok"))
	}))
	defer srv.Close()

	c, err := dialWS(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, got, err := c.ReadMessage() // answers the ping, then returns "ok"
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("got %q, want ok", got)
	}
}

// TestWSCloseHandshake asserts a peer close surfaces as ErrWSClosed and
// subsequent writes fail.
func TestWSCloseHandshake(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := upgradeWS(w, r)
		if err != nil {
			return
		}
		ws.Close()
	}))
	defer srv.Close()

	c, err := dialWS(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := c.ReadMessage(); !errors.Is(err, ErrWSClosed) {
		t.Fatalf("read after peer close: %v, want ErrWSClosed", err)
	}
	if err := c.WriteMessage([]byte("late")); !errors.Is(err, ErrWSClosed) {
		t.Fatalf("write after close: %v, want ErrWSClosed", err)
	}
}

// TestUpgradeRejectsPlainHTTP asserts a non-upgrade request gets an HTTP
// error, not a hijacked socket.
func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := upgradeWS(w, r); err == nil {
			t.Error("plain GET upgraded unexpectedly")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusUpgradeRequired)
	}
}

// TestWSAcceptVector checks the handshake hash against the RFC 6455
// Sec. 1.3 worked example.
func TestWSAcceptVector(t *testing.T) {
	got := wsAccept("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("wsAccept = %q, want %q", got, want)
	}
}
