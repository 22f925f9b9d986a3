package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/query"
)

// cannedEngine answers every query at once with a fixed result and, when it
// has one, a fixed partial: the snapshot plane's tests need exact control of
// what is put on the wire, not a scan.
type cannedEngine struct {
	engine.Engine // only the methods below are ever called
	res           *query.Result
	partial       *engine.Partial
}

func (e *cannedEngine) Name() string                { return "canned" }
func (e *cannedEngine) OpenSession() engine.Session { return e }
func (e *cannedEngine) LinkVizs(from, to string)    {}
func (e *cannedEngine) DeleteViz(name string)       {}
func (e *cannedEngine) WorkflowStart()              {}
func (e *cannedEngine) WorkflowEnd()                {}
func (e *cannedEngine) Close()                      {}

func (e *cannedEngine) StartQuery(*query.Query) (engine.Handle, error) {
	done := make(chan struct{})
	close(done)
	if e.partial == nil {
		return cannedHandle{e.res, done}, nil
	}
	return cannedPartialHandle{cannedHandle{e.res, done}, e.partial}, nil
}

type cannedHandle struct {
	res  *query.Result
	done chan struct{}
}

func (h cannedHandle) Snapshot() *query.Result { return h.res }
func (h cannedHandle) Done() <-chan struct{}   { return h.done }
func (h cannedHandle) Cancel()                 {}

type cannedPartialHandle struct {
	cannedHandle
	partial *engine.Partial
}

func (h cannedPartialHandle) PartialSnapshot() *engine.Partial { return h.partial }

// serveCanned serves eng and returns its address.
func serveCanned(t *testing.T, eng *cannedEngine) string {
	t.Helper()
	hsrv := httptest.NewServer(New(eng, Options{}))
	t.Cleanup(hsrv.Close)
	return strings.TrimPrefix(hsrv.URL, "http://")
}

// finalOf runs one query on rem and waits for its final frame.
func finalOf(t *testing.T, rem *Remote) engine.Handle {
	t.Helper()
	sess := rem.OpenSession().(*RemoteSession)
	defer sess.Close()
	h, err := sess.StartQuery(testQuery())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("query never completed")
	}
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestNonFiniteResultCompletes is the lost-final regression: a result holding
// values encoding/json refuses used to fail the frame's encode, the final was
// dropped and the client's Done never closed. The binary encoder has no value
// it refuses: +Inf, -Inf, NaN and -0 arrive bit-exact and the handle
// completes.
func TestNonFiniteResultCompletes(t *testing.T) {
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	res := query.NewResult()
	res.RowsSeen, res.TotalRows, res.Complete = 10, 10, true
	res.Bins[query.BinKey{A: 1}] = &query.BinValue{Values: odd, Margins: []float64{0, 0, 0, 0}}
	res.Bins[query.BinKey{A: 2, B: -1}] = &query.BinValue{Values: []float64{1, 2, 3, 4}, Margins: odd}
	rem, err := NewRemote(serveCanned(t, &cannedEngine{res: res}))
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	got := finalOf(t, rem).Snapshot()
	if got == nil || !got.Complete || len(got.Bins) != 2 {
		t.Fatalf("final result %+v", got)
	}
	for i, want := range odd {
		v := got.Bins[query.BinKey{A: 1}].Values[i]
		m := got.Bins[query.BinKey{A: 2, B: -1}].Margins[i]
		if math.Float64bits(v) != math.Float64bits(want) || math.Float64bits(m) != math.Float64bits(want) {
			t.Errorf("entry %d: value bits %#x, margin bits %#x, want %#x",
				i, math.Float64bits(v), math.Float64bits(m), math.Float64bits(want))
		}
	}
}

// TestPartialsQueryCarriesPartialOnly: a session that asked for partials gets
// the raw fragment and no rendered result beside it — unless the served
// handle has no fragment to give, when the rendered result is the answer.
func TestPartialsQueryCarriesPartialOnly(t *testing.T) {
	eng := &cannedEngine{res: testResult(), partial: testPartial()}
	addr := serveCanned(t, eng)
	rem, err := NewRemoteWithOptions(addr, RemoteOptions{Partials: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	h := finalOf(t, rem)
	if p := h.(engine.PartialSnapshotter).PartialSnapshot(); !reflect.DeepEqual(p, eng.partial) {
		t.Errorf("streamed partial %+v, want %+v", p, eng.partial)
	}
	if res := h.Snapshot(); res != nil {
		t.Errorf("partials query also carried a rendered result: %+v", res)
	}

	plain, err := NewRemoteWithOptions(serveCanned(t, &cannedEngine{res: testResult()}), RemoteOptions{Partials: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	h = finalOf(t, plain)
	if p := h.(engine.PartialSnapshotter).PartialSnapshot(); p != nil {
		t.Errorf("handle without fragments streamed a partial: %+v", p)
	}
	if res := h.Snapshot(); !reflect.DeepEqual(res, testResult()) {
		t.Errorf("fallback result %+v, want %+v", res, testResult())
	}
}

// TestSnapshotIsABinaryFrame watches a served query from a bare WebSocket:
// the hello is a text frame, and every snapshot is opcode 2 and decodes with
// the binary frame decoder — nothing on the data path is a JSON document.
func TestSnapshotIsABinaryFrame(t *testing.T) {
	f := newFixture(t, Options{})
	ws, err := dialWS("ws://"+f.addr+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	ws.SetReadDeadline(time.Now().Add(10 * time.Second))
	if op, data, err := ws.ReadMessage(); err != nil || op != opText || !bytes.Contains(data, []byte(`"hello"`)) {
		t.Fatalf("hello: opcode %d, %q, err %v", op, data, err)
	}
	data, err := encodeMsg(&ClientMsg{Type: MsgQuery, ID: 1, Query: firstQuery(t, f.flows[0])})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteMessage(data); err != nil {
		t.Fatal(err)
	}
	for lastSeq := int64(0); ; {
		op, data, err := ws.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != opBinary {
			t.Fatalf("frame after seq %d is opcode %d: %q", lastSeq, op, data)
		}
		m, err := decodeServerMsg(op, data)
		if err != nil {
			t.Fatal(err)
		}
		// Coalescing may drop intermediates, so seq climbs but can skip.
		if m.ID != 1 || m.Seq <= lastSeq || m.Result == nil {
			t.Fatalf("frame after seq %d: %+v", lastSeq, m)
		}
		lastSeq = m.Seq
		if m.Final {
			if !m.Result.Complete {
				t.Error("final result incomplete")
			}
			return
		}
	}
}

// scriptedServer upgrades one connection and writes the given text frames.
func scriptedServer(t *testing.T, frames ...string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := upgradeWS(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		for _, f := range frames {
			if ws.WriteMessage([]byte(f)) != nil {
				return
			}
		}
		ws.ReadMessage() // hold the connection until the client hangs up
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestOtherVersionsRefused: the protocol is current-or-refuse. A version-6
// hello — the last version whose ingest frames were JSON — ends the dial, and
// a current peer that sends a snapshot as a text frame has broken the
// protocol: the session fails, as it does on any malformed frame.
func TestOtherVersionsRefused(t *testing.T) {
	_, err := NewRemote(scriptedServer(t, `{"type":"hello","version":6,"engine":"progressive","rows":10}`))
	if err == nil || !strings.Contains(err.Error(), "protocol version 6") {
		t.Fatalf("version-6 hello: err %v, want a version refusal", err)
	}

	rem, err := NewRemote(scriptedServer(t,
		fmt.Sprintf(`{"type":"hello","version":%d,"engine":"progressive","rows":10}`, ProtoVersion),
		`{"type":"snapshot","id":1,"seq":1,"final":true,"result":{"bins":[],"rows_seen":10,"total_rows":10,"complete":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	waitFor(t, 10*time.Second, "the session to fail on the text snapshot", func() bool { return rem.Err() != nil })
	if !strings.Contains(rem.Err().Error(), "text frame") {
		t.Errorf("session error %v, want the text-frame refusal", rem.Err())
	}
}

// FuzzSnapshotFrame feeds arbitrary bytes to the parser RemoteSession's read
// loop hands every binary frame to. A result payload it passes must decode
// when the handle is asked for it — the read loop keeps it encoded on the
// strength of that check — and whatever decodes re-encodes to a frame that
// decodes again and is a fixed point of decode∘encode.
func FuzzSnapshotFrame(f *testing.F) {
	for _, m := range []*ServerMsg{
		{Type: MsgSnapshot, ID: 7, Seq: 3, Result: testResult()},
		{Type: MsgSnapshot, ID: 7, Seq: 4, Final: true, Shed: true, Result: query.NewResult()},
		{Type: MsgSnapshot, ID: 9, Seq: 1, Partial: testPartial()},
		{Type: MsgSnapshot, ID: 2, Seq: 1, Final: true},
	} {
		f.Add(appendSnapshot(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		f, err := parseSnapshot(data)
		if err != nil {
			return
		}
		m, err := decodeServerMsg(opBinary, data)
		if err != nil {
			t.Fatalf("frame parsed but does not decode: %v\n%x", err, data)
		}
		if f.result != nil {
			h := &remoteHandle{done: make(chan struct{})}
			h.deliver(f.result, f.final)
			if h.Snapshot() == nil {
				t.Fatalf("handle cannot decode a result frame the parser passed:\n%x", data)
			}
		}
		enc := appendSnapshot(nil, m)
		again, err := decodeServerMsg(opBinary, enc)
		if err != nil {
			t.Fatalf("own frame does not decode: %v\n%x", err, enc)
		}
		if enc2 := appendSnapshot(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("frame is not a fixed point:\n%x\n%x", enc, enc2)
		}
		if m.ID != again.ID || m.Seq != again.Seq || m.Final != again.Final || m.Shed != again.Shed ||
			(m.Result == nil) != (again.Result == nil) || (m.Partial == nil) != (again.Partial == nil) {
			t.Fatalf("decode∘encode changed the frame: %+v vs %+v", m, again)
		}
	})
}
