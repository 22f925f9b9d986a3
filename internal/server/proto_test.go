package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// testQuery builds a representative query exercising every proto-visible
// field: 2D binning, multiple aggregates, IN + range predicates.
func testQuery() *query.Query {
	return &query.Query{
		VizName: "viz_3",
		Table:   "flights",
		Bins: []query.Binning{
			{Field: "carrier", Kind: dataset.Nominal},
			{Field: "distance", Kind: dataset.Quantitative, Width: 250, Origin: 0},
		},
		Aggs: []query.Aggregate{
			{Func: query.Count},
			{Func: query.Avg, Field: "arr_delay"},
		},
		Filter: query.Filter{Predicates: []query.Predicate{
			{Field: "origin", Op: query.OpIn, Values: []string{"BOS", "SFO"}},
			{Field: "dep_delay", Op: query.OpRange, Lo: -10, Hi: 60},
		}},
	}
}

func testResult() *query.Result {
	r := query.NewResult()
	r.RowsSeen = 1234
	r.TotalRows = 50000
	r.Bins[query.BinKey{A: 3, B: 1}] = &query.BinValue{Values: []float64{17, 4.25}, Margins: []float64{0, 1.5}}
	r.Bins[query.BinKey{A: -2, B: 0}] = &query.BinValue{Values: []float64{9, -3}, Margins: []float64{0, 0.75}}
	return r
}

// TestClientMsgRoundTrip proves every client message type survives
// encode→decode bit-for-bit, including the embedded query.Query.
func TestClientMsgRoundTrip(t *testing.T) {
	msgs := []*ClientMsg{
		{Type: MsgQuery, ID: 7, Query: testQuery()},
		{Type: MsgCancel, ID: 7},
		{Type: MsgLink, From: "viz_1", To: "viz_2"},
		{Type: MsgDeleteViz, Name: "viz_1"},
		{Type: MsgWorkflowStart},
		{Type: MsgWorkflowEnd},
	}
	for _, m := range msgs {
		data, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		got, err := decodeClientMsg(opText, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n  sent %+v\n  got  %+v", m.Type, m, got)
		}
	}
}

// TestQuerySignatureSurvivesWire asserts the decoded query is semantically
// the query that was sent: the signature (ground-truth cache key) must not
// change crossing the wire, or remote replays would evaluate against the
// wrong reference.
func TestQuerySignatureSurvivesWire(t *testing.T) {
	q := testQuery()
	data, err := encodeMsg(&ClientMsg{Type: MsgQuery, ID: 1, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeClientMsg(opText, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query.Signature() != q.Signature() {
		t.Errorf("signature changed over the wire:\n  sent %s\n  got  %s", q.Signature(), got.Query.Signature())
	}
}

func testPartial() *engine.Partial {
	lo, hi := math.Inf(-1), math.Inf(1)
	return &engine.Partial{RowsSeen: 1234, Population: 50000, Watermark: 50000, Bins: []engine.PartialBin{
		{Key: query.BinKey{A: -2}, N: 9, W: []engine.WelfordWire{{}, {N: 9, Mean: -3, M2: 0.75}},
			Mins: []float64{hi, hi}, Maxs: []float64{lo, lo}},
		{Key: query.BinKey{A: 3, B: 1}, N: 17, W: []engine.WelfordWire{{}, {N: 17, Mean: 4.25, M2: 1.5}},
			Mins: []float64{hi, hi}, Maxs: []float64{lo, lo}},
	}}
}

// wireOf encodes m the one way its type travels and reports the opcode of
// the frame that carries it.
func wireOf(t *testing.T, m *ServerMsg) (byte, []byte) {
	t.Helper()
	if m.Type == MsgSnapshot {
		return opBinary, appendSnapshot(nil, m)
	}
	data, err := encodeMsg(m)
	if err != nil {
		t.Fatalf("%s: encode: %v", m.Type, err)
	}
	return opText, data
}

// TestServerMsgRoundTrip proves server frames survive the wire: the JSON
// control messages (hello, error, reject, ingest) as text frames, snapshots —
// with a result, with a partial, with neither — as binary frames.
func TestServerMsgRoundTrip(t *testing.T) {
	covered := testResult()
	covered.Complete, covered.Watermark = true, 49000
	covered.Coverage = &query.Coverage{PartitionsAnswered: 1, PartitionsTotal: 2, PopulationFraction: 0.5, Degraded: true}
	msgs := []*ServerMsg{
		{Type: MsgHello, Version: ProtoVersion, Engine: "progressive", Rows: 50000, Seed: 7},
		{Type: MsgHello, Version: ProtoVersion, Engine: "progressive", Rows: 50000, Seed: 7,
			Role: "coord", Peers: []string{"127.0.0.1:7001", "127.0.0.1:7002"}},
		{Type: MsgSnapshot, ID: 7, Seq: 3, Result: testResult()},
		{Type: MsgSnapshot, ID: 7, Seq: 4, Final: true, Result: testResult()},
		{Type: MsgSnapshot, ID: 8, Seq: 2, Final: true, Shed: true, Result: covered},
		{Type: MsgSnapshot, ID: 9, Seq: 1, Partial: testPartial()},
		{Type: MsgSnapshot, ID: 1 << 40, Seq: 1, Final: true},
		{Type: MsgError, ID: 9, Error: "engine: unknown table"},
		{Type: MsgReject, ID: 4, Error: "server query limit reached", RetryMS: 50},
		{Type: MsgIngest, Watermark: 50500},
	}
	for _, m := range msgs {
		op, data := wireOf(t, m)
		got, err := decodeServerMsg(op, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n  sent %+v\n  got  %+v", m.Type, m, got)
		}
	}
}

// TestResultBinsSurviveWire spot-checks the snapshot payload: bin keys and
// values must come back exactly (the driver evaluates error metrics on
// them).
func TestResultBinsSurviveWire(t *testing.T) {
	in := testResult()
	op, data := wireOf(t, &ServerMsg{Type: MsgSnapshot, ID: 1, Seq: 1, Result: in})
	m, err := decodeServerMsg(op, data)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Result
	if out.RowsSeen != in.RowsSeen || out.TotalRows != in.TotalRows || out.Complete != in.Complete {
		t.Fatalf("progress metadata mismatch: %+v vs %+v", out, in)
	}
	if len(out.Bins) != len(in.Bins) {
		t.Fatalf("bin count %d, want %d", len(out.Bins), len(in.Bins))
	}
	for k, bv := range in.Bins {
		got, ok := out.Bins[k]
		if !ok {
			t.Fatalf("bin %v lost", k)
		}
		if !reflect.DeepEqual(bv, got) {
			t.Errorf("bin %v mismatch: %+v vs %+v", k, got, bv)
		}
	}
}

// TestOneEncodingPerMessage: the opcode is the only discriminator, and each
// message type is accepted in exactly one encoding.
func TestOneEncodingPerMessage(t *testing.T) {
	if _, err := encodeMsg(&ServerMsg{Type: MsgSnapshot, ID: 1, Seq: 1, Result: testResult()}); err == nil {
		t.Error("a snapshot encoded as a JSON control message")
	}
	text := `{"type":"snapshot","id":1,"seq":1,"final":true,"result":{"bins":[],"rows_seen":1,"total_rows":1,"complete":true}}`
	if _, err := decodeServerMsg(opText, []byte(text)); err == nil || !strings.Contains(err.Error(), "text frame") {
		t.Errorf("text snapshot frame: err %v, want a refusal", err)
	}
	hello, _ := encodeMsg(&ServerMsg{Type: MsgHello, Version: ProtoVersion})
	if _, err := decodeServerMsg(opBinary, hello); err == nil {
		t.Error("a JSON hello decoded out of a binary frame")
	}
	q, _ := encodeMsg(&ClientMsg{Type: MsgQuery, ID: 1, Query: testQuery()})
	if _, err := decodeClientMsg(opBinary, q); err == nil {
		t.Error("a client message decoded out of a binary frame")
	}
	// An ingest is a binary frame of the batch alone, never JSON.
	if _, err := encodeMsg(&ClientMsg{Type: MsgIngest, Batch: testBatch()}); err == nil {
		t.Error("an ingest encoded as a JSON control message")
	}
	text = `{"type":"ingest","batch":{"table":"flights","rows":[["AA",12.5]]}}`
	if _, err := decodeClientMsg(opText, []byte(text)); err == nil || !strings.Contains(err.Error(), "text frame") {
		t.Errorf("text ingest frame: err %v, want a refusal", err)
	}
	if _, err := decodeClientMsg(opText, testBatch().AppendBinary(nil)); err == nil {
		t.Error("a binary batch decoded out of a text frame")
	}
	// A snapshot frame of another protocol version is not a snapshot.
	old := appendSnapshot(nil, &ServerMsg{Type: MsgSnapshot, ID: 1, Seq: 1, Result: testResult()})
	old[0] = 0x10 | (ProtoVersion - 1)
	if _, err := decodeServerMsg(opBinary, old); err == nil {
		t.Error("a version-5 snapshot tag decoded")
	}
}

// TestSnapshotFrameHostile: every strict prefix of a valid frame is an error,
// flags that contradict each other are refused, and a 24-byte frame whose
// payload announces 2^31 bins of 2^16 aggregates is refused before any slab
// is sized from it.
func TestSnapshotFrameHostile(t *testing.T) {
	for name, m := range map[string]*ServerMsg{
		"result":  {Type: MsgSnapshot, ID: 300, Seq: 2, Final: true, Result: testResult()},
		"partial": {Type: MsgSnapshot, ID: 300, Seq: 2, Partial: testPartial()},
	} {
		valid := appendSnapshot(nil, m)
		for n := 0; n < len(valid); n++ {
			if _, err := parseSnapshot(valid[:n]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded", name, n, len(valid))
			}
		}
		if _, err := parseSnapshot(append(valid, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
		both := append([]byte(nil), valid...)
		both[1] |= snapResult | snapPartial
		if _, err := parseSnapshot(both); err == nil {
			t.Errorf("%s: frame flagged as both result and partial decoded", name)
		}
	}
	if _, err := parseSnapshot([]byte{snapshotTag, snapFinal, 1, 1, 0}); err == nil {
		t.Error("payload bytes on a frame that flags no payload decoded")
	}
	for _, flag := range []byte{snapResult, snapPartial} {
		tag := byte(0x21) // query's result tag; engine's partial tag is 0x31
		if flag == snapPartial {
			tag = 0x31
		}
		huge := []byte{snapshotTag, flag, 1, 1, tag, 0, 0, 0, 0}
		huge = binary.AppendUvarint(huge, 1<<31)
		huge = binary.AppendUvarint(huge, 1<<16)
		huge = append(huge, make([]byte, 24-len(huge))...)
		// TotalAlloc counts every goroutine of the test binary, and those
		// earlier tests leave draining (servers, clients) add to the delta,
		// so it is averaged over many refusals. A refusal that sized even
		// one slab from the header would still allocate gigabytes, far past
		// the per-refusal bound.
		const refusals = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range refusals {
			if _, err := parseSnapshot(huge); err == nil {
				t.Fatalf("flag %#x: 2^31 × 2^16 frame decoded", flag)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := (after.TotalAlloc - before.TotalAlloc) / refusals; grew > 1<<16 { // the message and the errors, not the slabs
			t.Errorf("flag %#x: a refusal allocated %d bytes on average", flag, grew)
		}
	}
}

// TestClientMsgValidation covers the structural checks that protect the
// server's read loop.
func TestClientMsgValidation(t *testing.T) {
	bad := []*ClientMsg{
		{Type: "nope"},
		{Type: MsgQuery, ID: 1},              // no query
		{Type: MsgQuery, Query: testQuery()}, // no id
		{Type: MsgQuery, ID: -4, Query: testQuery()},
		{Type: MsgCancel},          // no id
		{Type: MsgLink, From: "a"}, // no to
		{Type: MsgDeleteViz},       // no name
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("message %+v validated unexpectedly", m)
		}
	}
	if _, err := decodeClientMsg(opText, []byte(`{not json`)); err == nil {
		t.Error("malformed JSON decoded unexpectedly")
	}
	if _, err := decodeServerMsg(opText, []byte(`{"type":"mystery"}`)); err == nil {
		t.Error("unknown server message type decoded unexpectedly")
	}
	wide := testQuery()
	for len(wide.Aggs) <= engine.MaxPartialAggs {
		wide.Aggs = append(wide.Aggs, query.Aggregate{Func: query.Count})
	}
	if err := (&ClientMsg{Type: MsgQuery, ID: 1, Query: wide}).Validate(); err != nil {
		t.Errorf("wide plain query refused: %v", err)
	}
	if err := (&ClientMsg{Type: MsgQuery, ID: 1, Query: wide, Partials: true}).Validate(); err == nil {
		t.Error("partials query wider than a partial frame can carry validated")
	}
}

// testBatch is a small ingest batch with both column kinds.
func testBatch() *ingest.Batch {
	return &ingest.Batch{Table: "flights", Seq: 3, Columns: []ingest.Column{
		{Kind: dataset.Nominal, Dict: []string{"AA", "O'Hare"}, Codes: []uint32{0, 1, 0}},
		{Kind: dataset.Quantitative, Nums: []float64{12.5, math.Copysign(0, -1), 5e-324}},
	}}
}

// FuzzClientMsg feeds arbitrary frames, as a socket would, to the decoder
// the server's read loop hands every client frame to: text control messages
// and binary ingest batches. It must never panic, and a message it accepts
// must re-encode the one way its type travels to a frame that decodes to a
// deep-equal message.
func FuzzClientMsg(f *testing.F) {
	wide := testQuery()
	for len(wide.Aggs) <= engine.MaxPartialAggs {
		wide.Aggs = append(wide.Aggs, query.Aggregate{Func: query.Count})
	}
	for _, m := range []*ClientMsg{
		{Type: MsgQuery, ID: 7, Query: testQuery(), DeadlineMS: 40, Partials: true},
		{Type: MsgCancel, ID: 7},
		{Type: MsgLink, From: "viz_1", To: "viz_2"},
		{Type: MsgDeleteViz, Name: "viz_1"},
		{Type: MsgWorkflowStart},
		{Type: MsgWorkflowEnd},
		{Type: MsgQuery, ID: 8, Query: wide, Partials: true}, // refused: too wide for a partial frame
	} {
		data, err := encodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(opText), data)
	}
	f.Add(byte(opBinary), testBatch().AppendBinary(nil))
	dict := ingest.Column{Kind: dataset.Nominal}
	for i := 0; i < 300; i++ {
		dict.Dict = append(dict.Dict, fmt.Sprintf("airport-%03d", i))
		dict.Codes = append(dict.Codes, uint32(i))
	}
	f.Add(byte(opBinary), (&ingest.Batch{Table: "flights", Columns: []ingest.Column{dict}}).AppendBinary(nil))
	huge := binary.AppendUvarint([]byte{0x41, 1, 't', 0}, 1<<31)
	huge = binary.AppendUvarint(huge, 1)
	f.Add(byte(opBinary), append(huge, make([]byte, 24-len(huge))...))
	// Refused: an ingest as JSON, in either frame.
	f.Add(byte(opText), []byte(`{"type":"ingest","batch":{"table":"flights","rows":[["AA",12.5]]}}`))
	f.Add(byte(opBinary), []byte(`{"table":"flights","rows":[["AA",12.5]]}`))

	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		m, err := decodeClientMsg(op, data)
		if err != nil {
			return
		}
		var again *ClientMsg
		if m.Type == MsgIngest {
			again, err = decodeClientMsg(opBinary, m.Batch.AppendBinary(nil))
		} else {
			var enc []byte
			if enc, err = encodeMsg(m); err != nil {
				t.Fatalf("accepted message does not encode: %v", err)
			}
			again, err = decodeClientMsg(opText, enc)
		}
		if err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode∘encode changed the message:\n was: %#v\n now: %#v", m, again)
		}
	})
}

// FuzzServerMsg feeds arbitrary text frames to the decoder a client's read
// loop hands the server's control messages to — hello, error, reject and the
// ingest watermark. It must never panic, must never return a snapshot from a
// text frame, and a message it accepts must re-encode to a frame that
// decodes to a message whose encoding is the same frame (an empty list and
// an absent one are the same message).
func FuzzServerMsg(f *testing.F) {
	for _, m := range []*ServerMsg{
		{Type: MsgHello, Version: ProtoVersion, Engine: "progressive", Rows: 50000, Seed: 7},
		{Type: MsgHello, Version: ProtoVersion, Engine: "coord", Rows: 9, Role: "coord", Peers: []string{"127.0.0.1:7001", "[::1]:7002"}},
		{Type: MsgError, ID: 9, Error: "engine: unknown table"},
		{Type: MsgError, Error: "server draining"},
		{Type: MsgReject, ID: 4, Error: "server query limit reached", RetryMS: 50},
		{Type: MsgIngest, Watermark: 50500},
	} {
		data, err := encodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"type":"snapshot","id":1,"seq":1,"final":true,"result":{"bins":[],"rows_seen":1,"total_rows":1,"complete":true}}`))
	f.Add([]byte(`{"type":"hello","version":6,"peers":null,"rows":-1}`))
	f.Add([]byte(`{"type":"ingest","watermark":1e400}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeServerMsg(opText, data)
		if err != nil {
			return
		}
		if m.Type == MsgSnapshot || m.Partial != nil {
			t.Fatalf("a text frame decoded to a snapshot: %+v", m)
		}
		enc, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("accepted message does not encode: %v", err)
		}
		again, err := decodeServerMsg(opText, enc)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v\n%s", err, enc)
		}
		if enc2, err := encodeMsg(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point (%v):\n was: %s\n now: %s", err, enc, enc2)
		}
	})
}
