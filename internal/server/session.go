package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/oberr"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/wire"
)

// outBuffer is how many responses a session may leave unread before the
// server declares it a slow consumer and drops it. The epoch scheduler
// never blocks on a client socket: replies go through this buffer and a
// per-session writer goroutine, so one stalled client cannot stall the
// epoch cadence — or other clients — by not reading.
const outBuffer = 256

// session is one client connection. A single reader goroutine decodes
// frames and either answers directly (Prepare, Stats — neither touches
// the engine) or queues a job for the epoch scheduler; all responses
// funnel through the out channel to a single writer goroutine.
type session struct {
	srv  *Server
	conn net.Conn

	out        chan *wire.Response
	readDone   chan struct{} // closed when the reader loop exits
	closing    chan struct{} // closed by Server.Close: flush out, then hang up
	writerDone chan struct{} // closed when the writer goroutine exits

	// prepared is touched only by the reader goroutine. Each entry is a
	// statement shape whose parse and compiled plan are shared through
	// the executor's shape-keyed cache; arity is checked against every
	// execution's bound arguments before the statement reaches an epoch
	// slot.
	prepared   map[uint32]*sql.Prepared
	nextHandle uint32

	// tx is this session's transaction state, touched only by the reader
	// goroutine: writes between BEGIN and COMMIT are buffered here and
	// handed to the engine as one atomic epoch-slot job at COMMIT. Reads
	// inside a transaction run immediately against the pre-transaction
	// snapshot (see internal/sql's transaction notes). Dropping the
	// connection abandons the buffer — an implicit rollback.
	tx sql.TxState

	closeOnce sync.Once
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:        s,
		conn:       conn,
		out:        make(chan *wire.Response, outBuffer),
		readDone:   make(chan struct{}),
		closing:    make(chan struct{}),
		writerDone: make(chan struct{}),
		prepared:   make(map[uint32]*sql.Prepared),
	}
}

// serve runs the reader loop until the connection drops or the server
// closes it.
func (ss *session) serve() {
	ss.srv.log.Info("session connected", "remote", ss.conn.RemoteAddr().String())
	defer ss.srv.log.Info("session closed", "remote", ss.conn.RemoteAddr().String())
	defer ss.srv.dropSession(ss)
	defer ss.close()
	defer close(ss.readDone)
	// A connection that drops with a transaction open abandons its
	// buffered writes — an implicit rollback, counted like an explicit
	// one. tx is owned by this (reader) goroutine, so the defer is the
	// one safe place to account it.
	defer func() {
		if ss.tx.Active() {
			if err := ss.tx.Rollback(); err == nil {
				ss.srv.m.txRolledBack.Inc()
			}
		}
	}()
	go ss.writer()
	for {
		payload, err := wire.ReadFrame(ss.conn)
		if err != nil {
			return
		}
		ss.srv.m.bytesIn.Add(uint64(len(payload)) + 4)
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Undecodable frame: the stream is unsynchronized, drop it.
			ss.srv.m.framesIn.WithCounter("unknown").Inc()
			ss.srv.log.Warn("bad frame", "remote", ss.conn.RemoteAddr().String(), "err", err)
			return
		}
		ss.srv.m.framesIn.WithCounter(frameTypeName(req.Type)).Inc()
		ss.handle(req)
	}
}

// writeResp encodes and writes one response frame, counting it. The
// frame is counted before the write starts: a client holding its reply
// may scrape /metrics at once, and must see that reply counted. With
// WriteDeadline configured, a client that stops draining its socket
// fails the write within the deadline and is evicted, instead of
// holding the writer goroutine (and its buffered responses) forever.
func (ss *session) writeResp(r *wire.Response) error {
	payload := wire.EncodeResponse(r)
	ss.srv.m.framesOut.WithCounter(frameTypeName(r.Type)).Inc()
	ss.srv.m.bytesOut.Add(uint64(len(payload)) + 4)
	if d := ss.srv.cfg.WriteDeadline; d > 0 {
		_ = ss.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := wire.WriteFrame(ss.conn, payload); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			ss.srv.m.sessionsEvicted.Inc()
			ss.srv.log.Warn("evicting stalled client",
				"remote", ss.conn.RemoteAddr().String(), "deadline", ss.srv.cfg.WriteDeadline)
		}
		return err
	}
	return nil
}

// closeFlushDeadline bounds the graceful-shutdown flush: a client that
// has stopped reading cannot hold Server.Close hostage past it.
const closeFlushDeadline = 5 * time.Second

// writer drains the out channel onto the socket. After the reader
// exits it flushes what is already queued, then stops. On graceful
// shutdown (closing) the writer owns the hang-up ordering: every reply
// the drain queued is flushed to the socket *before* the connection
// closes, so a statement answered by the final epochs is never lost to
// a close/flush race.
func (ss *session) writer() {
	defer close(ss.writerDone)
	for {
		select {
		case r := <-ss.out:
			if err := ss.writeResp(r); err != nil {
				ss.close()
				return
			}
		case <-ss.readDone:
			ss.flush()
			return
		case <-ss.closing:
			_ = ss.conn.SetWriteDeadline(time.Now().Add(closeFlushDeadline))
			ss.flush()
			ss.close()
			return
		}
	}
}

// flush writes everything already queued, stopping at the first write
// error (the connection is dead; the remaining replies have no reader).
func (ss *session) flush() {
	for {
		select {
		case r := <-ss.out:
			if err := ss.writeResp(r); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (ss *session) handle(req *wire.Request) {
	switch req.Type {
	case wire.TExec:
		prep, err := ss.srv.exec.PrepareOneShot(req.SQL)
		if err == nil {
			err = checkReserved(prep.Stmt())
		}
		if err == nil && prep.NumParams() > 0 {
			// A one-shot Exec has nowhere to bind arguments from;
			// placeholder statements must go through Prepare.
			err = fmt.Errorf("server: statement has parameters; prepare it and execute with arguments")
		}
		if err != nil {
			ss.send(errResp(req.ID, err))
			return
		}
		ss.route(req.ID, prep, nil)
	case wire.TPrepare:
		prep, err := ss.srv.exec.Prepare(req.SQL)
		if err == nil {
			err = checkReserved(prep.Stmt())
		}
		if err != nil {
			ss.send(errResp(req.ID, err))
			return
		}
		ss.nextHandle++
		ss.prepared[ss.nextHandle] = prep
		ss.send(&wire.Response{Type: wire.TPrepared, ID: req.ID,
			Handle: ss.nextHandle, NumParams: uint32(prep.NumParams())})
	case wire.TExecPrepared:
		ps, ok := ss.prepared[req.Handle]
		if !ok {
			ss.send(&wire.Response{Type: wire.TError, ID: req.ID,
				Err: fmt.Sprintf("server: no prepared statement %d", req.Handle)})
			return
		}
		ss.route(req.ID, ps, req.Args)
	case wire.TClosePrepared:
		delete(ss.prepared, req.Handle)
	case wire.TStats:
		ss.send(&wire.Response{Type: wire.TStatsResult, ID: req.ID, Stats: ss.srv.Stats()})
	case wire.TBegin, wire.TCommit, wire.TRollback:
		stmt := txFrames[req.Type]
		res, err := ss.tx.Control(ss.slots(req.ID), stmt)
		ss.answer(req.ID, stmt, res, err)
	default:
		ss.send(&wire.Response{Type: wire.TError, ID: req.ID,
			Err: fmt.Sprintf("server: unknown request type %d", req.Type)})
	}
}

// txFrames maps the transaction-control frames onto the statements they
// stand for, so both spellings take the same path through the router.
var txFrames = map[byte]sql.Statement{
	wire.TBegin:    &sql.Begin{},
	wire.TCommit:   &sql.Commit{},
	wire.TRollback: &sql.Rollback{},
}

// checkReserved rejects DDL and mutations against the server-owned pad
// table: a client that could drop or rewrite it would silently disable
// the dummy padding the leakage model depends on. Reads are allowed —
// they are exactly what the dummy statement itself does.
func checkReserved(stmt sql.Statement) error {
	var name string
	switch s := stmt.(type) {
	case *sql.CreateTable:
		name = s.Name
	case *sql.Insert:
		name = s.Name
	case *sql.Update:
		name = s.Name
	case *sql.Delete:
		name = s.Name
	case *sql.DropTable:
		name = s.Name
	}
	if strings.EqualFold(name, padTable) {
		return fmt.Errorf("server: table %q is reserved", padTable)
	}
	return nil
}

// route sends a checked statement through the session's transaction
// router, here in the reader: a wrong-arity statement, DDL inside a
// transaction, BEGIN, ROLLBACK and buffered writes are all answered
// without taking an epoch slot.
func (ss *session) route(id uint32, prep *sql.Prepared, args []table.Value) {
	res, err := ss.tx.Route(ss.slots(id), prep, args)
	ss.answer(id, prep.Stmt(), res, err)
}

// slots is the router's Runner for request id: a statement to run, or a
// COMMIT's buffered writes, becomes one epoch-slot job that replies
// itself. An empty transaction still rides a slot, so commits look
// alike.
func (ss *session) slots(id uint32) sql.Runner {
	return sql.Runner{
		Run: func(prep *sql.Prepared, args []table.Value) (*core.Result, error) {
			return nil, ss.srv.submit(&job{sess: ss, id: id, prep: prep, args: args})
		},
		Commit: func(items []sql.TxItem) (*core.Result, error) {
			return nil, ss.srv.submit(&job{sess: ss, id: id, commit: true, txItems: items})
		},
	}
}

// answer replies to what the router settled in the session and counts
// transaction control. A nil result is a queued job; its slot replies.
func (ss *session) answer(id uint32, stmt sql.Statement, res *core.Result, err error) {
	if err != nil {
		ss.send(errResp(id, err))
		return
	}
	if res == nil {
		return
	}
	switch sql.KindOf(stmt) {
	case "begin":
		ss.srv.m.txBegun.Inc()
	case "rollback":
		ss.srv.m.txRolledBack.Inc()
	}
	ss.reply(id, res, nil)
}

// errResp builds a TError frame carrying the error's stable code, so
// clients can branch on retriability without parsing message strings.
// Untyped errors carry code 0 (unknown) — never retriable.
func errResp(id uint32, err error) *wire.Response {
	return &wire.Response{Type: wire.TError, ID: id,
		Err: err.Error(), ErrCode: uint16(oberr.CodeOf(err))}
}

// reply delivers an epoch slot's outcome to the client.
func (ss *session) reply(id uint32, res *core.Result, err error) {
	if err != nil {
		ss.send(errResp(id, err))
		return
	}
	wres := &wire.Result{}
	if res != nil {
		wres.Cols = res.Cols
		wres.Rows = res.Rows
		wres.Affected = res.Affected
	}
	ss.send(&wire.Response{Type: wire.TResult, ID: id, Result: wres})
}

// send queues a response for the writer goroutine. It never blocks: a
// session whose buffer is full has stopped reading, and is dropped
// rather than allowed to stall the caller (which may be the epoch
// scheduler).
func (ss *session) send(r *wire.Response) {
	select {
	case ss.out <- r:
	default:
		ss.srv.m.sessionsEvicted.Inc()
		ss.srv.log.Warn("dropping slow client", "remote", ss.conn.RemoteAddr().String())
		ss.close()
	}
}

// close tears the connection down, unblocking the reader and writer.
func (ss *session) close() {
	ss.closeOnce.Do(func() { ss.conn.Close() })
}

// beginShutdown asks the writer to flush queued replies and then hang
// up; writerDone reports when it has. Called once, by Server.Close.
func (ss *session) beginShutdown() {
	close(ss.closing)
}
