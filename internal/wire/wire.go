// Package wire is ObliDB's client/server protocol: length-prefixed
// binary frames carrying SQL requests and materialized results.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload; the payload's first byte is the message type, the next four
// a request id the client chooses, and the rest the type-specific body.
// Request ids let one connection carry many statements in flight at
// once — the server answers in epoch order, not arrival order, so
// responses must name the request they answer.
//
// The protocol rides inside the client↔enclave secure channel of the
// paper's model (§2.2): the adversary observing the host's network sees
// only ciphertext sizes and timing. Hiding *those* is the epoch
// scheduler's job (internal/server); the wire format itself makes no
// attempt at padding.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"oblidb/internal/table"
)

// Message types. Requests flow client→server, responses server→client.
const (
	// TExec executes one SQL statement (body: string SQL).
	TExec byte = 1
	// TPrepare parses a statement and returns a reusable handle (body:
	// string SQL). The statement may contain ? / $n placeholders.
	TPrepare byte = 2
	// TExecPrepared executes a prepared handle with bound arguments
	// (body: uint32 handle, uvarint argument count, then one tagged
	// value per argument — int64, float64, string, bool, or null).
	TExecPrepared byte = 3
	// TClosePrepared releases a prepared handle (body: uint32 handle).
	TClosePrepared byte = 4
	// TStats requests server statistics (empty body).
	TStats byte = 5
	// TBegin opens a transaction on this session (empty body).
	TBegin byte = 6
	// TCommit commits the session's open transaction (empty body). The
	// result carries the transaction's total affected-row count.
	TCommit byte = 7
	// TRollback discards the session's open transaction (empty body).
	TRollback byte = 8

	// TResult answers an Exec with a materialized result.
	TResult byte = 16
	// TError answers any request with an error string.
	TError byte = 17
	// TPrepared answers a Prepare with the new handle.
	TPrepared byte = 18
	// TStatsResult answers a Stats request.
	TStatsResult byte = 19
)

// MaxFrame bounds a frame's payload; both ends reject bigger frames
// rather than trusting a length word from the network.
const MaxFrame = 64 << 20

// Request is any client→server message.
type Request struct {
	Type   byte
	ID     uint32
	SQL    string        // TExec, TPrepare
	Handle uint32        // TExecPrepared, TClosePrepared
	Args   []table.Value // TExecPrepared: bound placeholder values
}

// Result is a materialized query result in transit: the same shape as
// core.Result, duplicated here so the protocol layer does not depend on
// the engine.
type Result struct {
	Cols []string
	Rows []table.Row
	// Affected marks a DDL/DML outcome result (single cell = affected
	// row count). Encoded as a flag byte after the rows.
	Affected bool
}

// Stats is the server's self-report: everything in it is information
// the server deliberately publishes (epoch cadence and size are exactly
// what the untrusted host observes anyway, and plan choices are the
// conceded leakage of §2.3).
type Stats struct {
	// Epochs is the number of epochs executed so far.
	Epochs uint64
	// EpochSize is the fixed number of statement slots per epoch.
	EpochSize uint32
	// Real and Dummy count executed statements by kind; Real+Dummy =
	// Epochs×EpochSize.
	Real, Dummy uint64
	// Sessions is the number of currently connected clients.
	Sessions uint32
	// UptimeMillis is milliseconds since the server started serving.
	UptimeMillis uint64

	// Plan-cache and optimizer counters. PlanEntries is the number of
	// cached statement shapes; PlanHits/PlanMisses count parse-cache lookups;
	// PlanCompiles/PlanCompileSkips count plan compilations vs
	// executions that replayed a compiled plan.
	PlanEntries                    uint32
	PlanHits, PlanMisses           uint64
	PlanCompiles, PlanCompileSkips uint64
	// Picks tallies runtime operator-algorithm decisions, e.g.
	// "select.Hash" or "join.Opaque" or "sort", sorted by name.
	Picks []AlgPick

	// MetricsJSON is the server's full metrics snapshot, JSON-encoded.
	// It carries the same leakage-audited registry the /metrics endpoint exposes, so a
	// client behind a firewall still gets the whole catalog through the
	// protocol it already speaks.
	MetricsJSON string

	// Transaction and journal counters. The Tx counters tally BEGIN/COMMIT/ROLLBACK
	// traffic the client already generated; the Wal counters describe
	// the durable journal — all zero when the server runs without one.
	TxBegun, TxCommitted, TxRolledBack, TxAborted uint64
	WalEntries, WalCommits, WalCheckpoints        uint64
	WalBytes                                      uint64
}

// AlgPick is one operator-algorithm tally of Stats.Picks.
type AlgPick struct {
	Name  string
	Count uint64
}

// Response is any server→client message.
type Response struct {
	Type byte
	ID   uint32
	Err  string // TError
	// ErrCode is the stable oberr.Code of a TError (0 = unknown).
	// Clients branch on it for retry decisions, so codes are never
	// renumbered.
	ErrCode   uint16
	Result    *Result // TResult
	Handle    uint32  // TPrepared
	NumParams uint32  // TPrepared: placeholder count of the statement
	Stats     Stats   // TStatsResult
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) byte(v byte)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v int) { e.b = binary.AppendUvarint(e.b, uint64(v)) }
func (e *enc) str(s string)  { e.uvarint(len(s)); e.b = append(e.b, s...) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }

// dec is a consuming payload reader; the first decode error sticks.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s", msg)
	}
}

func (d *dec) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail("truncated uint32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("truncated uint64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) uvarint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > MaxFrame {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil || len(d.b) < n {
		d.fail("truncated string")
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

// end finishes a decode. Every field is read unconditionally, so a
// frame shorter than its layout has already failed; one with bytes left
// over fails here.
func (d *dec) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing byte(s)", len(d.b)))
	}
	return d.err
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) i64() int64   { return int64(d.u64()) }

// EncodeRequest serializes a request payload (frame it with WriteFrame).
func EncodeRequest(r *Request) []byte {
	e := &enc{}
	e.byte(r.Type)
	e.u32(r.ID)
	switch r.Type {
	case TExec, TPrepare:
		e.str(r.SQL)
	case TExecPrepared:
		e.u32(r.Handle)
		e.uvarint(len(r.Args))
		for _, v := range r.Args {
			e.value(v)
		}
	case TClosePrepared:
		e.u32(r.Handle)
	}
	return e.b
}

// DecodeRequest parses a request payload.
func DecodeRequest(payload []byte) (*Request, error) {
	d := &dec{b: payload}
	r := &Request{Type: d.byte(), ID: d.u32()}
	switch r.Type {
	case TExec, TPrepare:
		r.SQL = d.str()
	case TExecPrepared:
		r.Handle = d.u32()
		if n := d.uvarint(); n > 0 {
			// Cap preallocation by what the remaining payload could
			// encode (≥1 byte per value) so a lying count cannot force
			// a huge allocation.
			args := make([]table.Value, 0, min(n, len(d.b)))
			for i := 0; i < n && d.err == nil; i++ {
				args = append(args, d.value())
			}
			r.Args = args
		}
	case TClosePrepared:
		r.Handle = d.u32()
	case TStats, TBegin, TCommit, TRollback:
	default:
		return nil, fmt.Errorf("wire: unknown request type %d", r.Type)
	}
	return r, d.end()
}

// EncodeResponse serializes a response payload.
func EncodeResponse(r *Response) []byte {
	e := &enc{}
	e.byte(r.Type)
	e.u32(r.ID)
	switch r.Type {
	case TError:
		e.str(r.Err)
		e.uvarint(int(r.ErrCode))
	case TPrepared:
		e.u32(r.Handle)
		e.uvarint(int(r.NumParams))
	case TResult:
		encodeResult(e, r.Result)
	case TStatsResult:
		e.u64(r.Stats.Epochs)
		e.u32(r.Stats.EpochSize)
		e.u64(r.Stats.Real)
		e.u64(r.Stats.Dummy)
		e.u32(r.Stats.Sessions)
		e.u64(r.Stats.UptimeMillis)
		e.u32(r.Stats.PlanEntries)
		e.u64(r.Stats.PlanHits)
		e.u64(r.Stats.PlanMisses)
		e.u64(r.Stats.PlanCompiles)
		e.u64(r.Stats.PlanCompileSkips)
		e.uvarint(len(r.Stats.Picks))
		for _, p := range r.Stats.Picks {
			e.str(p.Name)
			e.u64(p.Count)
		}
		e.str(r.Stats.MetricsJSON)
		e.u64(r.Stats.TxBegun)
		e.u64(r.Stats.TxCommitted)
		e.u64(r.Stats.TxRolledBack)
		e.u64(r.Stats.TxAborted)
		e.u64(r.Stats.WalEntries)
		e.u64(r.Stats.WalCommits)
		e.u64(r.Stats.WalCheckpoints)
		e.u64(r.Stats.WalBytes)
	}
	return e.b
}

// DecodeResponse parses a response payload.
func DecodeResponse(payload []byte) (*Response, error) {
	d := &dec{b: payload}
	r := &Response{Type: d.byte(), ID: d.u32()}
	switch r.Type {
	case TError:
		r.Err = d.str()
		r.ErrCode = uint16(d.uvarint())
	case TPrepared:
		r.Handle = d.u32()
		r.NumParams = uint32(d.uvarint())
	case TResult:
		r.Result = decodeResult(d)
	case TStatsResult:
		st := &r.Stats
		st.Epochs = d.u64()
		st.EpochSize = d.u32()
		st.Real = d.u64()
		st.Dummy = d.u64()
		st.Sessions = d.u32()
		st.UptimeMillis = d.u64()
		st.PlanEntries = d.u32()
		st.PlanHits = d.u64()
		st.PlanMisses = d.u64()
		st.PlanCompiles = d.u64()
		st.PlanCompileSkips = d.u64()
		if n := d.uvarint(); n > 0 {
			// A pick is at least 9 bytes (name length + u64 count).
			picks := make([]AlgPick, 0, min(n, len(d.b)/9))
			for i := 0; i < n && d.err == nil; i++ {
				name := d.str()
				picks = append(picks, AlgPick{Name: name, Count: d.u64()})
			}
			st.Picks = picks
		}
		st.MetricsJSON = d.str()
		st.TxBegun = d.u64()
		st.TxCommitted = d.u64()
		st.TxRolledBack = d.u64()
		st.TxAborted = d.u64()
		st.WalEntries = d.u64()
		st.WalCommits = d.u64()
		st.WalCheckpoints = d.u64()
		st.WalBytes = d.u64()
	default:
		return nil, fmt.Errorf("wire: unknown response type %d", r.Type)
	}
	return r, d.end()
}

// Value kind tags on the wire (independent of table.Kind's numbering so
// the storage layer can evolve without a protocol break).
const (
	vInt    byte = 1
	vFloat  byte = 2
	vString byte = 3
	vBool   byte = 4
	vNull   byte = 5
)

// value appends one tagged value.
func (e *enc) value(v table.Value) {
	switch v.Kind {
	case table.KindInt:
		e.byte(vInt)
		e.i64(v.AsInt())
	case table.KindFloat:
		e.byte(vFloat)
		e.f64(v.AsFloat())
	case table.KindBool:
		e.byte(vBool)
		if v.AsBool() {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case table.KindNull:
		e.byte(vNull)
	default:
		e.byte(vString)
		e.str(v.AsString())
	}
}

// value consumes one tagged value.
func (d *dec) value() table.Value {
	switch d.byte() {
	case vInt:
		return table.Int(d.i64())
	case vFloat:
		return table.Float(d.f64())
	case vBool:
		return table.Bool(d.byte() != 0)
	case vString:
		return table.Str(d.str())
	case vNull:
		return table.Null()
	}
	d.fail("unknown value kind")
	return table.Value{}
}

func encodeResult(e *enc, res *Result) {
	e.uvarint(len(res.Cols))
	for _, c := range res.Cols {
		e.str(c)
	}
	e.uvarint(len(res.Rows))
	for _, row := range res.Rows {
		e.uvarint(len(row))
		for _, v := range row {
			e.value(v)
		}
	}
	if res.Affected {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func decodeResult(d *dec) *Result {
	res := &Result{}
	nc := d.uvarint()
	for i := 0; i < nc && d.err == nil; i++ {
		res.Cols = append(res.Cols, d.str())
	}
	nr := d.uvarint()
	for i := 0; i < nr && d.err == nil; i++ {
		nv := d.uvarint()
		// Cap the preallocation by what the remaining payload could
		// possibly encode (≥2 bytes per value), so a lying count from
		// the network cannot force a huge allocation.
		capHint := nv
		if maxVals := len(d.b) / 2; capHint > maxVals {
			capHint = maxVals
		}
		row := make(table.Row, 0, capHint)
		for j := 0; j < nv && d.err == nil; j++ {
			row = append(row, d.value())
		}
		res.Rows = append(res.Rows, row)
	}
	res.Affected = d.byte() != 0
	return res
}
