// Package driver registers an "oblidb" database/sql driver, so the
// oblivious engine is usable through Go's standard database plumbing:
//
//	import (
//		"database/sql"
//		_ "oblidb/driver"
//	)
//
//	db, err := sql.Open("oblidb", "mem://")             // in-process engine
//	db, err := sql.Open("oblidb", "oblidb://host:7744") // networked server
//
//	rows, err := db.QueryContext(ctx, "SELECT name FROM users WHERE id = $1", 2)
//	st, err := db.Prepare("INSERT INTO users VALUES (?, ?, ?)")
//
// Two DSN forms are supported. "mem://" (or ":memory:") opens a fresh
// in-process engine owned by that sql.DB — every pooled connection
// shares the one engine, so the pool behaves like a single database.
// "oblidb://host:port" dials an oblidb-server; each pooled connection
// is its own wire connection, multiplexed by the server's epoch
// scheduler.
//
// Statements bind parameters, never splice them: argument values are
// delivered out-of-band from the SQL text (in-process: straight to the
// enclave's evaluator; networked: as typed wire values inside the
// encrypted channel) and cannot influence the query plan or any
// host-observable access pattern.
//
// Transactions are supported through the standard Tx API and are
// *deferred*: INSERT/UPDATE/DELETE issued on the Tx are buffered (each
// reports 0 affected rows) and applied atomically at Commit — in one
// epoch slot server-side, and as one durable journal commit when the
// server runs with -wal. Queries on the Tx see the pre-transaction
// snapshot, not the buffered writes; DDL cannot run inside a
// transaction. Only the default and serializable isolation levels are
// accepted.
//
// Unsupported database/sql features: named parameters and
// LastInsertId.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/oberr"
	sqlexec "oblidb/internal/sql"
	"oblidb/internal/table"
)

func init() {
	sql.Register("oblidb", &Driver{})
}

// ErrNoTransactions is no longer returned: the driver supports
// deferred transactions through the standard Tx API.
//
// Deprecated: kept only so existing code comparing against it still
// compiles.
var ErrNoTransactions = errors.New("oblidb driver: transactions are not supported")

// Driver is the database/sql driver. The zero value is ready to use;
// database/sql registration happens in this package's init.
type Driver struct{}

var _ driver.Driver = (*Driver)(nil)
var _ driver.DriverContext = (*Driver)(nil)

// Open opens a single connection. database/sql prefers OpenConnector
// (below); Open exists for completeness and tools that use the Driver
// interface directly. Note that for mem:// DSNs every Open call made
// this way creates an independent engine — pooled sharing requires the
// connector path.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once and returns a connector that every
// pooled connection of one sql.DB is built from.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	switch {
	case dsn == ":memory:" || dsn == "mem://" || dsn == "mem:":
		return &memConnector{drv: d}, nil
	case strings.HasPrefix(dsn, "oblidb://"):
		addr := strings.TrimPrefix(dsn, "oblidb://")
		addr = strings.TrimSuffix(addr, "/")
		if addr == "" {
			return nil, fmt.Errorf("oblidb driver: DSN %q has no host:port", dsn)
		}
		return &netConnector{drv: d, addr: addr}, nil
	}
	return nil, fmt.Errorf("oblidb driver: unrecognized DSN %q (want \"mem://\" or \"oblidb://host:port\")", dsn)
}

// --- in-process backend ----------------------------------------------------

// memConnector owns one in-process engine, created lazily on the first
// connection and shared by all connections of its sql.DB pool.
type memConnector struct {
	drv  *Driver
	once sync.Once
	exec *sqlexec.Executor
	err  error
}

func (c *memConnector) Connect(ctx context.Context) (driver.Conn, error) {
	c.once.Do(func() {
		db, err := core.Open(core.Config{})
		if err != nil {
			c.err = err
			return
		}
		c.exec = sqlexec.New(db)
	})
	if c.err != nil {
		return nil, c.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &memConn{exec: c.exec}, nil
}

func (c *memConnector) Driver() driver.Driver { return c.drv }

// memConn is one pooled handle onto the shared in-process engine.
// database/sql pins a connection for the life of a Tx, so the deferred
// transaction state lives here.
type memConn struct {
	exec   *sqlexec.Executor
	tx     sqlexec.TxState
	closed bool
}

var _ driver.Conn = (*memConn)(nil)
var _ driver.ConnPrepareContext = (*memConn)(nil)
var _ driver.ConnBeginTx = (*memConn)(nil)
var _ driver.ExecerContext = (*memConn)(nil)
var _ driver.QueryerContext = (*memConn)(nil)
var _ driver.Pinger = (*memConn)(nil)

func (c *memConn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *memConn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prep, err := c.exec.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &memStmt{conn: c, prep: prep}, nil
}

func (c *memConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	res, err := c.run(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return resultFrom(res), nil
}

func (c *memConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	res, err := c.run(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return newRows(res.Cols, res.Rows), nil
}

func (c *memConn) run(ctx context.Context, query string, args []driver.NamedValue) (*core.Result, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	prep, err := c.exec.PrepareOneShot(query)
	if err != nil {
		return nil, err
	}
	return c.route(prep, vals)
}

// route sends one statement through the connection's transaction
// router: inside a transaction, writes are buffered until Commit and
// reads see the pre-transaction snapshot. Transaction control must use
// the database/sql Tx API.
func (c *memConn) route(prep *sqlexec.Prepared, vals []table.Value) (*core.Result, error) {
	if sqlexec.IsTxControl(prep.Stmt()) {
		return nil, errors.New("oblidb driver: use the database/sql Tx API for transaction control")
	}
	return c.tx.Route(sqlexec.Local(c.exec), prep, vals)
}

func (c *memConn) Ping(ctx context.Context) error {
	if c.closed {
		return driver.ErrBadConn
	}
	return ctx.Err()
}

func (c *memConn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

func (c *memConn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkTxOptions(opts); err != nil {
		return nil, err
	}
	if err := c.tx.Begin(); err != nil {
		return nil, err
	}
	return &memTx{conn: c}, nil
}

// memTx commits or discards the connection's buffered writes.
type memTx struct{ conn *memConn }

var _ driver.Tx = (*memTx)(nil)

func (t *memTx) Commit() error {
	_, err := t.conn.tx.Commit(sqlexec.Local(t.conn.exec))
	return err
}

func (t *memTx) Rollback() error { return t.conn.tx.Rollback() }

func (c *memConn) Close() error {
	// The engine is owned by the connector (shared by the pool); closing
	// a pooled handle releases nothing engine-side.
	c.closed = true
	return nil
}

// memStmt is a prepared statement on the in-process engine: the handle
// pins the executor's cache entry, so every execution replays the
// shape's compiled plan without a per-call lookup.
type memStmt struct {
	conn   *memConn
	prep   *sqlexec.Prepared
	closed bool
}

var _ driver.Stmt = (*memStmt)(nil)
var _ driver.StmtExecContext = (*memStmt)(nil)
var _ driver.StmtQueryContext = (*memStmt)(nil)

func (s *memStmt) NumInput() int { return s.prep.NumParams() }

func (s *memStmt) Close() error {
	// Idempotent; the parse stays in the executor's plan cache.
	s.closed = true
	return nil
}

func (s *memStmt) run(ctx context.Context, vals []table.Value) (*core.Result, error) {
	if s.closed || s.conn.closed {
		return nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.conn.route(s.prep, vals)
}

func (s *memStmt) Exec(args []driver.Value) (driver.Result, error) {
	vals, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.run(context.Background(), vals)
	if err != nil {
		return nil, err
	}
	return resultFrom(res), nil
}

func (s *memStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	vals, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.run(ctx, vals)
	if err != nil {
		return nil, err
	}
	return resultFrom(res), nil
}

func (s *memStmt) Query(args []driver.Value) (driver.Rows, error) {
	vals, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.run(context.Background(), vals)
	if err != nil {
		return nil, err
	}
	return newRows(res.Cols, res.Rows), nil
}

func (s *memStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	vals, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.run(ctx, vals)
	if err != nil {
		return nil, err
	}
	return newRows(res.Cols, res.Rows), nil
}

// --- networked backend -----------------------------------------------------

// netConnector dials one wire connection per pooled driver.Conn.
type netConnector struct {
	drv  *Driver
	addr string
}

func (c *netConnector) Connect(ctx context.Context) (driver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wc, err := client.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	return &netConn{c: wc}, nil
}

func (c *netConnector) Driver() driver.Driver { return c.drv }

// netConn wraps one wire connection.
type netConn struct {
	c      *client.Conn
	closed bool
}

// badConn maps typed connection failures onto driver.ErrBadConn, which
// tells database/sql to discard this pooled connection and retry the
// operation on a fresh one. The mapping is deliberately asymmetric:
// CodeUnavailable guarantees the request never reached the server, so
// pool-level retry is safe for any statement; the ambiguous
// CodeConnLost (the request may have executed) maps only on read-only
// paths — on exec paths the typed error surfaces to the application,
// which alone knows whether re-running the mutation is acceptable.
func badConn(err error, readOnly bool) error {
	switch oberr.CodeOf(err) {
	case oberr.CodeUnavailable:
		return driver.ErrBadConn
	case oberr.CodeConnLost:
		if readOnly {
			return driver.ErrBadConn
		}
	}
	return err
}

var _ driver.Conn = (*netConn)(nil)
var _ driver.ConnPrepareContext = (*netConn)(nil)
var _ driver.ConnBeginTx = (*netConn)(nil)
var _ driver.ExecerContext = (*netConn)(nil)
var _ driver.QueryerContext = (*netConn)(nil)
var _ driver.Pinger = (*netConn)(nil)

func (c *netConn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *netConn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	st, err := c.c.PrepareContext(ctx, query)
	if err != nil {
		// Preparing parses but never executes: always safe to retry on a
		// fresh pooled connection.
		return nil, badConn(err, true)
	}
	return &netStmt{st: st}, nil
}

// ExecContext runs unparameterized statements directly; with arguments
// it defers to database/sql's prepare-execute-close fallback (the wire
// protocol binds arguments to prepared handles only).
func (c *netConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	if c.closed {
		return nil, driver.ErrBadConn
	}
	res, err := c.c.ExecContext(ctx, query)
	if err != nil {
		return nil, badConn(err, false)
	}
	return wireResultFrom(res), nil
}

// QueryContext mirrors ExecContext's ErrSkip strategy.
func (c *netConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	if c.closed {
		return nil, driver.ErrBadConn
	}
	res, err := c.c.ExecContext(ctx, query)
	if err != nil {
		// Query paths still check the statement text: Query on a mutation
		// is legal, and an ambiguous loss must not silently re-run it.
		return nil, badConn(err, isReadOnlySQL(query))
	}
	if res == nil {
		return newRows(nil, nil), nil
	}
	return newRows(res.Cols, res.Rows), nil
}

// isReadOnlySQL reports whether a statement provably cannot mutate;
// anything unrecognized is conservatively a write.
func isReadOnlySQL(query string) bool {
	f := strings.Fields(query)
	return len(f) > 0 && strings.EqualFold(f[0], "SELECT")
}

func (c *netConn) Ping(ctx context.Context) error {
	if c.closed {
		return driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := c.c.ServerStats(); err != nil {
		return driver.ErrBadConn
	}
	return nil
}

func (c *netConn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

func (c *netConn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	if err := checkTxOptions(opts); err != nil {
		return nil, err
	}
	if err := c.c.Begin(ctx); err != nil {
		// BEGIN only arms session state; if it was lost in flight the
		// abandoned session rolls back server-side, so a fresh pooled
		// connection can safely begin again.
		return nil, badConn(err, true)
	}
	return &netTx{c: c.c}, nil
}

// netTx drives the session's server-side transaction: the server
// buffers the writes; Commit rides one epoch slot.
type netTx struct{ c *client.Conn }

var _ driver.Tx = (*netTx)(nil)

func (t *netTx) Commit() error {
	_, err := t.c.Commit(context.Background())
	return err
}

func (t *netTx) Rollback() error { return t.c.Rollback(context.Background()) }

func (c *netConn) Close() error {
	c.closed = true
	return c.c.Close()
}

// netStmt wraps a server-side prepared handle.
type netStmt struct {
	st *client.Stmt
}

var _ driver.Stmt = (*netStmt)(nil)
var _ driver.StmtExecContext = (*netStmt)(nil)
var _ driver.StmtQueryContext = (*netStmt)(nil)

func (s *netStmt) NumInput() int { return s.st.NumParams() }
func (s *netStmt) Close() error  { return s.st.Close() }

func (s *netStmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.exec(context.Background(), valuesToAny(args))
}

func (s *netStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.exec(ctx, namedToAny(args))
}

func (s *netStmt) exec(ctx context.Context, args []any) (driver.Result, error) {
	res, err := s.st.ExecContext(ctx, args...)
	if err != nil {
		return nil, badConn(err, false)
	}
	return wireResultFrom(res), nil
}

func (s *netStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.query(context.Background(), valuesToAny(args))
}

func (s *netStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.query(ctx, namedToAny(args))
}

func (s *netStmt) query(ctx context.Context, args []any) (driver.Rows, error) {
	res, err := s.st.ExecContext(ctx, args...)
	if err != nil {
		return nil, badConn(err, isReadOnlySQL(s.st.String()))
	}
	if res == nil {
		return newRows(nil, nil), nil
	}
	return newRows(res.Cols, res.Rows), nil
}

// --- shared plumbing -------------------------------------------------------

// checkTxOptions rejects transaction options the engine cannot honor.
// Deferred transactions apply their writes under one hold of the
// engine mutex, so serializable (and the default) are the honest
// offers; weaker levels would promise reads the snapshot model does
// not provide, and read-only enforcement does not exist.
func checkTxOptions(opts driver.TxOptions) error {
	if opts.ReadOnly {
		return errors.New("oblidb driver: read-only transactions are not supported")
	}
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault, sql.LevelSerializable:
		return nil
	}
	return fmt.Errorf("oblidb driver: isolation level %v is not supported", sql.IsolationLevel(opts.Isolation))
}

// namedToValues converts database/sql arguments, rejecting named
// parameters (the dialect has only positional ones).
func namedToValues(args []driver.NamedValue) ([]table.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]table.Value, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("oblidb driver: named parameter %q not supported (use ? or $n)", a.Name)
		}
		v, err := table.FromAny(a.Value)
		if err != nil {
			return nil, fmt.Errorf("oblidb driver: argument %d: %w", a.Ordinal, err)
		}
		vals[i] = v
	}
	return vals, nil
}

func driverToValues(args []driver.Value) ([]table.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]table.Value, len(args))
	for i, a := range args {
		v, err := table.FromAny(a)
		if err != nil {
			return nil, fmt.Errorf("oblidb driver: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

func valuesToAny(args []driver.Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

func namedToAny(args []driver.NamedValue) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

// result adapts an affected-count result. The engine marks DDL/DML
// outcomes explicitly (Result.Affected), so no column-name sniffing.
type result struct {
	affected int64
	ok       bool
}

var _ driver.Result = result{}

func resultFrom(res *core.Result) driver.Result {
	if res != nil && res.Affected && len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		return result{affected: res.Rows[0][0].AsInt(), ok: true}
	}
	return result{}
}

func wireResultFrom(res *client.Result) driver.Result {
	if res != nil && res.Affected && len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		return result{affected: res.Rows[0][0].AsInt(), ok: true}
	}
	return result{}
}

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("oblidb driver: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) {
	if !r.ok {
		return 0, errors.New("oblidb driver: statement did not report an affected count")
	}
	return r.affected, nil
}

// rows adapts a materialized result to the driver cursor.
type rows struct {
	cols []string
	data []table.Row
	i    int
}

var _ driver.Rows = (*rows)(nil)

func newRows(cols []string, data []table.Row) *rows {
	return &rows{cols: cols, data: data}
}

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { r.i = len(r.data); return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.i >= len(r.data) {
		return io.EOF
	}
	row := r.data[r.i]
	r.i++
	for j, v := range row {
		if j >= len(dest) {
			break
		}
		switch v.Kind {
		case table.KindInt:
			dest[j] = v.AsInt()
		case table.KindFloat:
			dest[j] = v.AsFloat()
		case table.KindBool:
			dest[j] = v.AsBool()
		case table.KindNull:
			dest[j] = nil
		default:
			dest[j] = v.AsString()
		}
	}
	return nil
}
