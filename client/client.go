// Package client is the network client for an ObliDB server
// (cmd/oblidb-server): Dial a server, Exec SQL, Prepare parameterized
// statements for repeated execution with bound arguments, and read
// server Stats.
//
// A Conn is safe for concurrent use. Each request carries an id, so any
// number of goroutines can have statements in flight on one connection;
// the server answers when the epoch scheduler executes them, which
// means latency is quantized to the server's epoch cadence — batch
// concurrent work rather than serializing round trips.
//
//	c, err := client.Dial("localhost:7744")
//	if err != nil { ... }
//	defer c.Close()
//	c.Exec(`CREATE TABLE t (id INTEGER, name VARCHAR(16))`)
//	st, err := c.Prepare(`SELECT name FROM t WHERE id = $1`)
//	res, err := st.Exec(2)
//
// Prepared statements separate the public statement shape (sent once,
// at Prepare) from the private argument values, which travel only
// inside the encrypted channel and bind inside the enclave.
//
// # Resilience
//
// DialOptions opens a connection that survives server restarts and
// transient faults: with Options.Reconnect the client redials with
// exponential backoff and jitter whenever the connection drops, and
// prepared statements transparently re-prepare on the new connection.
// Failures carry the stable oberr codes from the wire protocol, so
// oblidb.ErrorCodeOf / oblidb.Retriable classify them mechanically.
//
// The retry policy is deliberate about ambiguity. A statement that
// provably never executed (the connection was down before sending, or
// the server answered with a typed overload/shutdown rejection) is safe
// to retry even if it mutates — the client does so automatically in
// reconnect mode. A statement whose connection died after the request
// may have been sent (CodeConnLost) might have executed: it is retried
// only when Options.RetryReads is set AND the statement is read-only.
// Transaction control frames are never auto-retried — the server rolls
// an open transaction back when its session drops, so replaying COMMIT
// on a fresh session would falsely acknowledge an empty transaction.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblidb/internal/oberr"
	"oblidb/internal/table"
	"oblidb/internal/wire"
)

// Result is a materialized query result (columns plus decoded rows).
type Result = wire.Result

// Stats is a server's self-reported counters.
type Stats = wire.Stats

// errClosed is the terminal error after Close: not typed, not
// retriable — the application closed the connection on purpose.
var errClosed = errors.New("oblidb client: connection closed")

// Options configures a Conn's resilience behavior. The zero value (as
// used by Dial) is the legacy behavior: no reconnect, no automatic
// retry, connection loss is terminal.
type Options struct {
	// Reconnect redials the server with exponential backoff and jitter
	// whenever the connection drops, instead of failing permanently.
	// Statements that provably never executed (CodeUnavailable,
	// CodeOverload, CodeShutdown) are retried automatically — those
	// retries are safe even for mutations.
	Reconnect bool

	// RetryReads additionally retries read-only statements (and only
	// those) after an ambiguous connection loss (CodeConnLost), where a
	// mutation might already have executed server-side.
	RetryReads bool

	// BackoffBase is the first retry/redial delay; it doubles per
	// attempt up to BackoffMax, each sleep jittered to avoid reconnect
	// stampedes. Defaults: 20ms base, 2s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// MaxRetries bounds automatic retries per statement (not counting
	// the initial attempt). 0 or negative means the default, 4.
	MaxRetries int
}

// Conn is one connection to an ObliDB server, safe for concurrent use.
type Conn struct {
	addr string
	opts Options

	wmu sync.Mutex // serializes frame writes

	// Local traffic counters (see Stats).
	framesSent, framesReceived atomic.Uint64
	bytesWritten, bytesRead    atomic.Uint64
	reconnects, retries        atomic.Uint64
	rePrepares                 atomic.Uint64

	mu      sync.Mutex
	conn    net.Conn // current connection; nil while down or reconnecting
	gen     uint64   // bumped per successful (re)dial; 1 at Dial
	nextID  uint32   // request ids are monotonic across reconnects
	pending map[uint32]chan *wire.Response
	stmts   map[*Stmt]struct{} // live prepared statements
	lastErr error              // most recent connection error
	closed  bool
	quit    chan struct{} // closed by Close; aborts redial/backoff sleeps
}

// ConnStats is a connection's local self-report: counters the client
// maintains itself, available even when the server is unreachable.
// Frame counts include fire-and-forget frames (statement closes);
// bytes include the 4-byte frame headers.
type ConnStats struct {
	FramesSent, FramesReceived uint64
	BytesWritten, BytesRead    uint64
	// Reconnects counts successful redials; Retries counts automatic
	// statement re-submissions (each also backed off); RePrepares counts
	// prepared statements transparently re-prepared on a new connection.
	Reconnects, Retries, RePrepares uint64
	// Pending is the number of requests awaiting a response.
	Pending int
	// Connected reports whether a healthy connection is up right now.
	Connected bool
	// LastError is the most recent connection error, "" while healthy
	// since the start. In reconnect mode it persists across a successful
	// redial as a record of the last fault.
	LastError string
}

// Stats reports the connection's local counters. For the server's
// self-report (epochs, plan cache, the full metrics snapshot), use
// ServerStats.
func (c *Conn) Stats() ConnStats {
	st := ConnStats{
		FramesSent:     c.framesSent.Load(),
		FramesReceived: c.framesReceived.Load(),
		BytesWritten:   c.bytesWritten.Load(),
		BytesRead:      c.bytesRead.Load(),
		Reconnects:     c.reconnects.Load(),
		Retries:        c.retries.Load(),
		RePrepares:     c.rePrepares.Load(),
	}
	c.mu.Lock()
	st.Pending = len(c.pending)
	st.Connected = c.conn != nil && !c.closed
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	c.mu.Unlock()
	return st
}

// Dial connects to an ObliDB server at addr ("host:port") with zero
// Options: no reconnect, no automatic retry.
func Dial(addr string) (*Conn, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to an ObliDB server at addr with the given
// resilience options.
func DialOptions(addr string, opts Options) (*Conn, error) {
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 20 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 4
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		addr:    addr,
		opts:    opts,
		conn:    nc,
		gen:     1,
		pending: make(map[uint32]chan *wire.Response),
		stmts:   make(map[*Stmt]struct{}),
		quit:    make(chan struct{}),
	}
	go c.receive(nc, 1)
	return c, nil
}

// generation reports the current connection generation. A Stmt prepared
// on generation g holds a server handle that is valid exactly while the
// Conn is still on generation g.
func (c *Conn) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// receive is the reader goroutine for one connection generation: it
// dispatches each response to the request waiting for it, and on
// connection failure fails every pending request and (in reconnect
// mode) starts the redial loop.
func (c *Conn) receive(nc net.Conn, gen uint64) {
	for {
		payload, err := wire.ReadFrame(nc)
		if err == nil {
			c.framesReceived.Add(1)
			c.bytesRead.Add(uint64(len(payload)) + 4)
			var resp *wire.Response
			if resp, err = wire.DecodeResponse(payload); err == nil {
				// Request ids are monotonic across reconnects, so a late
				// response from this connection can never be misdelivered
				// to a request sent on a newer one.
				c.mu.Lock()
				ch := c.pending[resp.ID]
				delete(c.pending, resp.ID)
				c.mu.Unlock()
				if ch != nil {
					ch <- resp
				}
				continue
			}
		}
		nc.Close()
		c.mu.Lock()
		if c.gen != gen {
			// A newer connection already took over; its reader owns the
			// pending map now.
			c.mu.Unlock()
			return
		}
		c.conn = nil
		c.lastErr = oberr.Wrapf(oberr.CodeConnLost, err, "oblidb client: connection lost")
		for id, ch := range c.pending {
			delete(c.pending, id)
			close(ch)
		}
		redial := c.opts.Reconnect && !c.closed
		c.mu.Unlock()
		if redial {
			go c.redial()
		}
		return
	}
}

// redial re-establishes the connection with exponential backoff and
// jitter, installing the new connection (and a fresh reader) under the
// next generation. It stops when Close is called.
func (c *Conn) redial() {
	delay := c.opts.BackoffBase
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		nc, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				nc.Close()
				return
			}
			c.conn = nc
			c.gen++
			gen := c.gen
			c.mu.Unlock()
			c.reconnects.Add(1)
			go c.receive(nc, gen)
			return
		}
		select {
		case <-c.quit:
			return
		case <-time.After(jitter(delay)):
		}
		delay *= 2
		if delay > c.opts.BackoffMax {
			delay = c.opts.BackoffMax
		}
	}
}

// jitter spreads a backoff delay over [d/2, d] so a fleet of clients
// severed by the same fault does not redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// backoff sleeps before a retry attempt (0-based), honoring ctx and
// Close.
func (c *Conn) backoff(ctx context.Context, attempt int) error {
	d := c.opts.BackoffBase
	for i := 0; i < attempt && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.quit:
		return errClosed
	case <-time.After(jitter(d)):
		return nil
	}
}

// callPolicy says how a request may be retried.
type callPolicy struct {
	retry    bool // participate in automatic retry at all
	readOnly bool // statement provably does not mutate
}

// retriableNow decides whether one failed attempt may be resubmitted.
// The split is by ambiguity, not by retriability of the code alone:
// codes that guarantee the statement never executed are safe for any
// statement (in reconnect mode); the ambiguous CodeConnLost is safe
// only for read-only statements, and only when the caller opted in.
func (c *Conn) retriableNow(err error, readOnly bool) bool {
	switch oberr.CodeOf(err) {
	case oberr.CodeUnavailable, oberr.CodeOverload, oberr.CodeShutdown:
		return c.opts.Reconnect || (c.opts.RetryReads && readOnly)
	case oberr.CodeConnLost:
		return c.opts.RetryReads && readOnly
	}
	return false
}

// call sends a request, retrying per policy with backoff. It returns
// the connection generation the successful attempt ran on.
func (c *Conn) call(ctx context.Context, req *wire.Request, pol callPolicy) (*wire.Response, uint64, error) {
	for attempt := 0; ; attempt++ {
		resp, gen, err := c.callOnce(ctx, req)
		if err == nil {
			return resp, gen, nil
		}
		if !pol.retry || attempt >= c.opts.MaxRetries || !c.retriableNow(err, pol.readOnly) {
			return nil, 0, err
		}
		c.retries.Add(1)
		if berr := c.backoff(ctx, attempt); berr != nil {
			return nil, 0, berr
		}
	}
}

// callOnce sends one request on the current connection and waits for
// its response, honoring ctx while waiting: on cancellation the pending
// slot is abandoned (the statement may still execute server-side; only
// the reply is dropped). Failures are typed: no connection at all is
// CodeUnavailable (the request provably never left), everything after
// the send attempt is CodeConnLost (ambiguous), and TError responses
// carry the server's own code.
func (c *Conn) callOnce(ctx context.Context, req *wire.Request) (*wire.Response, uint64, error) {
	ch := make(chan *wire.Response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, errClosed
	}
	nc, gen := c.conn, c.gen
	if nc == nil {
		err := c.lastErr
		c.mu.Unlock()
		if c.opts.Reconnect || err == nil {
			// The redial loop owns recovery; this request was never sent.
			err = oberr.New(oberr.CodeUnavailable, "oblidb client: not connected (reconnect pending)")
		}
		return nil, gen, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	payload := wire.EncodeRequest(req)
	c.wmu.Lock()
	err := wire.WriteFrame(nc, payload)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		// Some bytes may have left before the failure, so this is the
		// ambiguous class even though no response will come.
		return nil, gen, oberr.Wrapf(oberr.CodeConnLost, err, "oblidb client: send failed")
	}
	c.framesSent.Add(1)
	c.bytesWritten.Add(uint64(len(payload)) + 4)

	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.lastErr
			c.mu.Unlock()
			if err == nil {
				err = oberr.New(oberr.CodeConnLost, "oblidb client: connection lost")
			}
			return nil, gen, err
		}
		if resp.Type == wire.TError {
			return nil, gen, respError(resp)
		}
		return resp, gen, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, gen, ctx.Err()
	}
}

// respError turns a TError frame into an error carrying the server's
// stable code, so oblidb.ErrorCodeOf and oblidb.Retriable work on
// client-surfaced errors. Frames with code 0 (client-mistake
// rejections) stay untyped.
func respError(r *wire.Response) error {
	if code := oberr.Code(r.ErrCode); code != oberr.CodeUnknown {
		return oberr.New(code, "oblidb: %s", r.Err)
	}
	return fmt.Errorf("oblidb: %s", r.Err)
}

// isReadOnly reports whether a statement provably cannot mutate — the
// gate for retrying it after an ambiguous connection loss. Only SELECT
// qualifies; anything unrecognized is conservatively a write.
func isReadOnly(sql string) bool {
	f := strings.Fields(sql)
	return len(f) > 0 && strings.EqualFold(f[0], "SELECT")
}

// Exec runs one SQL statement (without placeholders) on the server and
// returns its result. The call blocks until the server's epoch
// scheduler executes the statement.
func (c *Conn) Exec(sql string) (*Result, error) {
	return c.ExecContext(context.Background(), sql)
}

// ExecContext is Exec honoring ctx while waiting for the epoch
// scheduler.
func (c *Conn) ExecContext(ctx context.Context, sql string) (*Result, error) {
	pol := callPolicy{retry: true, readOnly: isReadOnly(sql)}
	resp, _, err := c.call(ctx, &wire.Request{Type: wire.TExec, SQL: sql}, pol)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.TResult {
		return nil, fmt.Errorf("oblidb client: unexpected response type %d", resp.Type)
	}
	return resp.Result, nil
}

// Stmt is a server-side prepared statement. It is safe for concurrent
// use; Close is idempotent and safe after connection loss. In reconnect
// mode the statement transparently re-prepares itself on the new
// connection after a reconnect (handles are per-session server-side).
type Stmt struct {
	c         *Conn
	sql       string
	numParams int

	mu     sync.Mutex
	handle uint32
	gen    uint64 // connection generation the handle was prepared on
	closed bool

	closeOnce sync.Once
	closeErr  error
}

// Prepare parses sql on the server and returns a handle for repeated
// execution without re-parsing. The statement may contain ? / $n
// placeholders, bound per execution by Exec's arguments.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	return c.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honoring ctx.
func (c *Conn) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	handle, numParams, gen, err := c.prepareOn(ctx, sql)
	if err != nil {
		return nil, err
	}
	st := &Stmt{c: c, sql: sql, numParams: numParams, handle: handle, gen: gen}
	c.mu.Lock()
	c.stmts[st] = struct{}{}
	c.mu.Unlock()
	return st, nil
}

// prepareOn prepares sql with its own retry loop (preparing is
// idempotent — it parses but never executes) and reports which
// connection generation holds the returned handle.
func (c *Conn) prepareOn(ctx context.Context, sql string) (uint32, int, uint64, error) {
	for attempt := 0; ; attempt++ {
		resp, gen, err := c.callOnce(ctx, &wire.Request{Type: wire.TPrepare, SQL: sql})
		if err == nil {
			if resp.Type != wire.TPrepared {
				return 0, 0, 0, fmt.Errorf("oblidb client: unexpected response type %d", resp.Type)
			}
			return resp.Handle, int(resp.NumParams), gen, nil
		}
		if attempt >= c.opts.MaxRetries || !c.retriableNow(err, true) {
			return 0, 0, 0, err
		}
		c.retries.Add(1)
		if berr := c.backoff(ctx, attempt); berr != nil {
			return 0, 0, 0, berr
		}
	}
}

// ensure returns a handle valid for the current connection generation,
// re-preparing the statement if a reconnect invalidated it.
func (st *Stmt) ensure(ctx context.Context) (uint32, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, 0, errors.New("oblidb client: statement is closed")
	}
	if cur := st.c.generation(); st.gen == cur {
		return st.handle, st.gen, nil
	}
	handle, numParams, gen, err := st.c.prepareOn(ctx, st.sql)
	if err != nil {
		return 0, 0, err
	}
	if numParams != st.numParams {
		return 0, 0, fmt.Errorf("oblidb client: statement re-prepared with %d parameter(s), had %d",
			numParams, st.numParams)
	}
	st.handle, st.gen = handle, gen
	st.c.rePrepares.Add(1)
	return handle, gen, nil
}

// Exec runs the prepared statement with the given arguments bound to
// its placeholders. Accepted argument types are those of
// table.FromAny: Go integers, floats, string, []byte, bool, and nil.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec honoring ctx while waiting for the epoch
// scheduler. The retry loop lives here rather than in call because a
// reconnect between attempts invalidates the server-side handle: each
// attempt re-ensures the handle against the current connection.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	vals := make([]table.Value, len(args))
	for i, a := range args {
		v, err := table.FromAny(a)
		if err != nil {
			return nil, fmt.Errorf("oblidb client: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	if len(vals) != st.numParams {
		return nil, fmt.Errorf("oblidb client: statement has %d parameter(s), got %d argument(s)",
			st.numParams, len(vals))
	}
	readOnly := isReadOnly(st.sql)
	for attempt := 0; ; attempt++ {
		handle, prepGen, err := st.ensure(ctx)
		if err != nil {
			return nil, err
		}
		resp, gen, err := st.c.callOnce(ctx,
			&wire.Request{Type: wire.TExecPrepared, Handle: handle, Args: vals})
		if err == nil {
			if resp.Type != wire.TResult {
				return nil, fmt.Errorf("oblidb client: unexpected response type %d", resp.Type)
			}
			return resp.Result, nil
		}
		if attempt >= st.c.opts.MaxRetries {
			return nil, err
		}
		// A reconnect slipped between ensure and the send: the handle the
		// request carried is stale on the new session. The statement was
		// not executed (the server rejects unknown handles), so looping to
		// re-prepare is always safe.
		if gen != prepGen {
			st.c.retries.Add(1)
			continue
		}
		if !st.c.retriableNow(err, readOnly) {
			return nil, err
		}
		st.c.retries.Add(1)
		if berr := st.c.backoff(ctx, attempt); berr != nil {
			return nil, berr
		}
	}
}

// NumParams reports how many arguments Exec requires.
func (st *Stmt) NumParams() int { return st.numParams }

// String returns the statement's SQL.
func (st *Stmt) String() string { return st.sql }

// Close releases the server-side handle. It is idempotent, and safe
// after connection loss or reconnect (a handle from a previous
// connection generation died with its session; there is nothing to
// release). The statement must not be executed afterwards.
func (st *Stmt) Close() error {
	st.closeOnce.Do(func() {
		st.mu.Lock()
		st.closed = true
		handle, gen := st.handle, st.gen
		st.mu.Unlock()
		st.c.mu.Lock()
		delete(st.c.stmts, st)
		live := !st.c.closed && st.c.conn != nil && st.c.gen == gen
		st.c.mu.Unlock()
		if live {
			st.closeErr = st.c.sendClose(handle)
		}
	})
	return st.closeErr
}

// sendClose writes a TClosePrepared frame (fire-and-forget; the server
// does not answer it).
func (c *Conn) sendClose(handle uint32) error {
	c.mu.Lock()
	nc := c.conn
	c.mu.Unlock()
	if nc == nil {
		return nil // the session is gone and took its handles with it
	}
	payload := wire.EncodeRequest(&wire.Request{Type: wire.TClosePrepared, Handle: handle})
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(nc, payload); err != nil {
		return err
	}
	c.framesSent.Add(1)
	c.bytesWritten.Add(uint64(len(payload)) + 4)
	return nil
}

// txControl round-trips one empty-body transaction frame. Transaction
// control is never auto-retried: the buffered transaction is session
// state, and a reconnected session has none — replaying COMMIT there
// would acknowledge an empty transaction as if it were the real one.
func (c *Conn) txControl(ctx context.Context, t byte) (*Result, error) {
	resp, _, err := c.call(ctx, &wire.Request{Type: t}, callPolicy{})
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.TResult {
		return nil, fmt.Errorf("oblidb client: unexpected response type %d", resp.Type)
	}
	return resp.Result, nil
}

// Begin opens a transaction on this connection's session. Writes issued
// until Commit are deferred server-side (they acknowledge 0 affected
// rows immediately); reads keep executing against the pre-transaction
// snapshot. A connection has at most one open transaction.
func (c *Conn) Begin(ctx context.Context) error {
	_, err := c.txControl(ctx, wire.TBegin)
	return err
}

// Commit applies the transaction's deferred writes atomically in one
// epoch slot — and, when the server journals, as one durable commit.
// The result's single cell is the transaction's total affected-row
// count.
func (c *Conn) Commit(ctx context.Context) (*Result, error) {
	return c.txControl(ctx, wire.TCommit)
}

// Rollback discards the transaction's deferred writes.
func (c *Conn) Rollback(ctx context.Context) error {
	_, err := c.txControl(ctx, wire.TRollback)
	return err
}

// ServerStats fetches the server's public counters, including the full
// metrics snapshot in Stats.MetricsJSON.
func (c *Conn) ServerStats() (Stats, error) {
	resp, _, err := c.call(context.Background(), &wire.Request{Type: wire.TStats},
		callPolicy{retry: true, readOnly: true})
	if err != nil {
		return Stats{}, err
	}
	if resp.Type != wire.TStatsResult {
		return Stats{}, fmt.Errorf("oblidb client: unexpected response type %d", resp.Type)
	}
	return resp.Stats, nil
}

// Close closes the connection and stops any redial in progress;
// in-flight requests fail promptly. It is idempotent. Server-side
// prepared handles are released with the session, so no per-handle
// frames are needed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nc := c.conn
	c.conn = nil
	close(c.quit)
	c.mu.Unlock()
	if nc != nil {
		// The reader goroutine notices the close, fails anything pending,
		// and exits.
		return nc.Close()
	}
	return nil
}
