// The idebench wire protocol: one WebSocket connection per engine session
// (paper Sec. 4.5 — the driver/backend split puts the system adapter behind a
// connection, not a function call), protocol version 7, current or refuse:
// the server states ProtoVersion in its hello frame and a client that speaks
// another version hangs up. There are no external clients, so there is no
// negotiation and no second decoder.
//
// The client speaks first with every message type below except "hello"; the
// server streams zero or more intermediate "snapshot" frames per query
// followed by exactly one final frame, or an "error" frame. Frames for
// distinct queries interleave freely; seq increases per query so a client can
// detect (harmless) reordering introduced by coalescing.
//
// Every message type has exactly one encoding, and the WebSocket opcode is
// the only discriminator:
//
//	opcode 1 (text)    JSON control messages: the client's query, cancel,
//	                   link, delete_viz and workflow frames (ClientMsg) and
//	                   the server's hello, error, reject and
//	                   ingest-watermark frames (ServerMsg). A text frame of
//	                   type "snapshot", or a client's of type "ingest", is a
//	                   protocol error.
//	opcode 2 (binary)  client→server: one ingest batch, the frame being
//	                   exactly the batch's binary form (ingest/binary.go:
//	                   tag, table, seq, rows, columns, then per column raw
//	                   floats or a dictionary and its codes).
//	                   server→client: one snapshot frame:
//
//	  byte     snapshotTag: kind 1 in the high nibble, ProtoVersion in the low
//	  byte     flags: final | shed | result | partial
//	  uvarint  id   query the frame belongs to
//	  uvarint  seq  per-query frame sequence
//	  payload  the binary form of the query.Result (flag result) or of the
//	           engine.Partial (flag partial — what a query that asked for
//	           Partials streams instead), running to the end of the frame;
//	           absent when neither flag is set (a query cancelled before any
//	           row). Both forms are a small header — rows seen, total rows or
//	           population, watermark, complete, coverage — and a columnar
//	           body: keys as varints in ascending order, then raw
//	           little-endian IEEE-754 columns. See query/binary.go and
//	           engine/partial.go for the two layouts.
//
// The server encodes a snapshot by appending into its connection's write
// buffer behind the WebSocket header's headroom, so a frame is one buffer and
// one conn.Write; the client decodes out of its connection's read buffer into
// slabs it owns. An ingest frame is built the same way on the client, and
// the server decodes it into a batch that owns its memory.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/wire"
)

// ProtoVersion is the wire-protocol version. The server states its version
// in the hello frame; clients reject a mismatch rather than guessing.
const ProtoVersion = 7

// Client→server message types.
const (
	// MsgQuery starts asynchronous execution of Query under ID.
	MsgQuery = "query"
	// MsgCancel cancels the in-flight query ID (idempotent; the final
	// snapshot frame still arrives, carrying whatever the engine had).
	MsgCancel = "cancel"
	// MsgLink declares a From→To visualization link on the session.
	MsgLink = "link"
	// MsgDeleteViz discards visualization Name on the session.
	MsgDeleteViz = "delete_viz"
	// MsgWorkflowStart/MsgWorkflowEnd bracket one workflow replay.
	MsgWorkflowStart = "workflow_start"
	MsgWorkflowEnd   = "workflow_end"
)

// MsgIngest flows both ways: a client's binary frame carries an append-only
// Batch the server applies to its engine; the server then broadcasts a text
// ingest frame with the post-apply Watermark to every live session, so all
// connected analysts learn the data moved (and by how much) regardless of
// who fed it.
const MsgIngest = "ingest"

// Server→client message types.
const (
	// MsgHello is the first frame on every connection: protocol version,
	// engine name and prepared row count.
	MsgHello = "hello"
	// MsgSnapshot carries one result snapshot for query ID. Final marks the
	// last frame for that ID (execution finished or was cancelled).
	MsgSnapshot = "snapshot"
	// MsgError reports a per-query failure (bad query, engine not prepared);
	// it is terminal for ID. Connection-level failures close the socket.
	MsgError = "error"
	// MsgReject refuses query ID without executing it — admission control,
	// not failure. RetryMS > 0 is the server's backoff hint (the query may
	// succeed if re-offered after that long); RetryMS == 0 is terminal for
	// this connection (e.g. the server is draining). Rejection never poisons
	// the session: subsequent queries are admitted on their own merits.
	MsgReject = "reject"
)

// ClientMsg is any client→server message. Type selects which fields apply:
// ID+Query for "query", ID for "cancel", From/To for "link", Name for
// "delete_viz"; the workflow brackets carry the type alone.
type ClientMsg struct {
	Type  string       `json:"type"`
	ID    int64        `json:"id,omitempty"`
	Query *query.Query `json:"query,omitempty"`
	From  string       `json:"from,omitempty"`
	To    string       `json:"to,omitempty"`
	Name  string       `json:"name,omitempty"`
	// Batch is the appended rows of an "ingest" message, which travels as a
	// binary frame of the batch alone.
	Batch *ingest.Batch `json:"-"`
	// DeadlineMS is the client's interactivity deadline for a "query" frame,
	// in milliseconds. The server treats it as a shedding hint: work still
	// running well past the deadline (twice it) is
	// cancelled, its partial final marked Shed. 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Partials on a "query" frame asks the server to stream the query's raw
	// accumulator state (ServerMsg.Partial) in place of the rendered Result
	// on every snapshot frame. Scatter-gather coordinators set it.
	Partials bool `json:"partials,omitempty"`
}

// Validate checks a text control message's structural well-formedness (the
// query itself is validated engine-side like any local query). An ingest is
// not one: it travels as a binary frame of the batch alone.
func (m *ClientMsg) Validate() error {
	switch m.Type {
	case MsgQuery:
		if m.Query == nil {
			return fmt.Errorf("server: %s message without query", m.Type)
		}
		if m.ID <= 0 {
			return fmt.Errorf("server: %s message needs a positive id", m.Type)
		}
		if m.Partials && len(m.Query.Aggs) > engine.MaxPartialAggs {
			return fmt.Errorf("server: partials of %d aggregates, limit %d", len(m.Query.Aggs), engine.MaxPartialAggs)
		}
	case MsgCancel:
		if m.ID <= 0 {
			return fmt.Errorf("server: %s message needs a positive id", m.Type)
		}
	case MsgLink:
		if m.From == "" || m.To == "" {
			return fmt.Errorf("server: %s message needs from and to", m.Type)
		}
	case MsgDeleteViz:
		if m.Name == "" {
			return fmt.Errorf("server: %s message needs a name", m.Type)
		}
	case MsgIngest:
		return fmt.Errorf("server: %s in a text frame", m.Type)
	case MsgWorkflowStart, MsgWorkflowEnd:
	default:
		return fmt.Errorf("server: unknown client message type %q", m.Type)
	}
	return nil
}

// ServerMsg is any server→client message. Type selects which fields apply:
// Version/Engine/Rows/Seed for "hello", ID/Seq/Final/Shed and Result or
// Partial for "snapshot", ID/Error for "error", Watermark for "ingest". The
// JSON tags are the encoding of the control messages only; a snapshot travels
// as a binary frame (appendSnapshot).
type ServerMsg struct {
	Type    string        `json:"type"`
	ID      int64         `json:"id,omitempty"`
	Seq     int64         `json:"seq,omitempty"`
	Final   bool          `json:"final,omitempty"`
	Result  *query.Result `json:"result,omitempty"`
	Error   string        `json:"error,omitempty"`
	Version int           `json:"version,omitempty"`
	Engine  string        `json:"engine,omitempty"`
	Rows    int64         `json:"rows,omitempty"`
	// Watermark is the engine's post-apply row count on "ingest" frames.
	Watermark int64 `json:"watermark,omitempty"`
	// Seed is the dataset seed the server prepared with; clients computing
	// ground truth locally must generate from the same seed or every
	// accuracy metric is silently wrong. 0 means unknown.
	Seed int64 `json:"seed,omitempty"`
	// RetryMS is the backoff hint on a "reject" frame, milliseconds; 0 marks
	// the rejection terminal (see MsgReject).
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Shed marks a final snapshot whose query was cancelled by deadline-aware
	// shedding rather than run to completion: the result is the progressive
	// estimate as of the cancel, valid but not converged.
	Shed bool `json:"shed,omitempty"`
	// Partial is the query's raw accumulator state, carried by snapshot
	// frames in place of Result when the query frame requested Partials (and
	// the engine has the capability).
	Partial *engine.Partial `json:"-"`
	// Role identifies the serving topology position in the hello frame:
	// "" or "single" for a standalone server, "shard" for one partition of a
	// scatter-gather tier, "coord" for the coordinator fronting it.
	Role string `json:"role,omitempty"`
	// Peers lists, on the hello frame, every address this serving tier may
	// be reached at: the answering server plus its warm standbys. Clients
	// merge unseen entries into their redial address list, so a client
	// that dialed only the primary learns where to go when it dies.
	Peers []string `json:"peers,omitempty"`
}

// encodeMsg marshals a JSON control message — a ClientMsg other than an
// ingest, or a ServerMsg other than a snapshot — for a text frame.
func encodeMsg(v any) ([]byte, error) {
	switch m := v.(type) {
	case *ServerMsg:
		if m.Type == MsgSnapshot {
			return nil, fmt.Errorf("server: a %s travels as a binary frame", MsgSnapshot)
		}
	case *ClientMsg:
		if m.Type == MsgIngest {
			return nil, fmt.Errorf("server: an %s travels as a binary frame", MsgIngest)
		}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("server: encode %T: %w", v, err)
	}
	return data, nil
}

// snapshotTag opens every binary frame: the frame kind (1, a snapshot) in
// the high nibble, the protocol version in the low one.
const snapshotTag = 0x10 | ProtoVersion

const (
	snapFinal = 1 << iota
	snapShed
	snapResult
	snapPartial
	snapFlagsEnd
)

// appendSnapshot appends the binary frame of snapshot message m to dst. It
// cannot fail: every result and partial has a binary form.
func appendSnapshot(dst []byte, m *ServerMsg) []byte {
	flags := byte(0)
	if m.Final {
		flags |= snapFinal
	}
	if m.Shed {
		flags |= snapShed
	}
	switch {
	case m.Partial != nil:
		flags |= snapPartial
	case m.Result != nil:
		flags |= snapResult
	}
	dst = append(dst, snapshotTag, flags)
	dst = binary.AppendUvarint(dst, uint64(m.ID))
	dst = binary.AppendUvarint(dst, uint64(m.Seq))
	switch {
	case m.Partial != nil:
		dst = m.Partial.AppendBinary(dst)
	case m.Result != nil:
		dst = m.Result.AppendBinary(dst)
	}
	return dst
}

// snapshotFrame is one parsed binary frame. A result payload stays encoded —
// checked end to end, but aliasing the frame's bytes — because a client keeps
// the freshest frame of a query and decodes it only when someone looks at it;
// a partial is decoded, into memory of its own.
type snapshotFrame struct {
	id, seq     int64
	final, shed bool
	result      []byte
	partial     *engine.Partial
}

// parseSnapshot parses and checks one binary frame.
func parseSnapshot(data []byte) (snapshotFrame, error) {
	var f snapshotFrame
	rd := wire.NewReader(data)
	if tag := rd.Byte(); tag != snapshotTag {
		return f, fmt.Errorf("server: binary frame tag %#x, want %#x (a version-%d snapshot)", tag, snapshotTag, ProtoVersion)
	}
	flags := rd.Byte()
	if flags >= snapFlagsEnd || flags&(snapResult|snapPartial) == snapResult|snapPartial {
		return f, fmt.Errorf("server: bad snapshot flags %#x", flags)
	}
	f.final, f.shed = flags&snapFinal != 0, flags&snapShed != 0
	f.id = int64(rd.Uvarint())
	f.seq = int64(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return f, fmt.Errorf("server: decode snapshot: %w", err)
	}
	var err error
	switch payload := rd.Take(rd.Len()); {
	case flags&snapResult != 0:
		f.result, err = payload, query.CheckBinary(payload)
	case flags&snapPartial != 0:
		f.partial = new(engine.Partial)
		err = f.partial.UnmarshalBinary(payload)
	case len(payload) != 0:
		err = fmt.Errorf("%d payload bytes on a frame that flags none", len(payload))
	}
	if err != nil {
		return f, fmt.Errorf("server: decode snapshot %d: %w", f.id, err)
	}
	return f, nil
}

// decodeClientMsg parses and validates one client frame: a binary frame is
// an ingest batch, a text frame a JSON control message and never an ingest.
// The message owns its memory; nothing aliases data.
func decodeClientMsg(op byte, data []byte) (*ClientMsg, error) {
	switch op {
	case opBinary:
		b, err := ingest.DecodeBatch(data)
		if err != nil {
			return nil, fmt.Errorf("server: decode ingest frame: %w", err)
		}
		return &ClientMsg{Type: MsgIngest, Batch: b}, nil
	case opText:
	default:
		return nil, fmt.Errorf("server: client frame with opcode %#x", op)
	}
	var m ClientMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: decode client message: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// decodeServerMsg decodes one server frame completely: a binary frame is a
// snapshot, a text frame is a JSON control message and never a snapshot.
func decodeServerMsg(op byte, data []byte) (*ServerMsg, error) {
	if op == opBinary {
		f, err := parseSnapshot(data)
		if err != nil {
			return nil, err
		}
		m := &ServerMsg{Type: MsgSnapshot, ID: f.id, Seq: f.seq, Final: f.final, Shed: f.shed, Partial: f.partial}
		if f.result != nil {
			m.Result = new(query.Result)
			if err := m.Result.UnmarshalBinary(f.result); err != nil {
				return nil, err // unreachable: parseSnapshot checked the payload
			}
		}
		return m, nil
	}
	var m ServerMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: decode server message: %w", err)
	}
	switch m.Type {
	case MsgHello, MsgError, MsgIngest, MsgReject:
		return &m, nil
	case MsgSnapshot:
		return nil, fmt.Errorf("server: %s in a text frame", MsgSnapshot)
	default:
		return nil, fmt.Errorf("server: unknown server message type %q", m.Type)
	}
}
