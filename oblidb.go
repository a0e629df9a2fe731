// Package oblidb is a Go implementation of ObliDB (Eskandarian & Zaharia,
// VLDB 2019): a database engine whose every query runs with oblivious —
// access-pattern-hiding — physical operators inside a (simulated)
// hardware enclave.
//
// The engine stores each table by one or both of two methods: a flat
// array of sealed blocks that operators always scan in full, and a B+
// tree inside a Path ORAM whose mutations are padded to worst-case access
// counts. Selections run one of four size-specialized oblivious
// algorithms chosen by a query planner that consults only already-public
// sizes; joins choose among an oblivious hash join and two sort-merge
// joins over a bitonic sorting network. Everything an adversarial OS can
// observe — the sequence of untrusted memory accesses — depends only on
// table sizes and the chosen plan, never on data or query parameters.
//
// # Quick start
//
//	db, err := oblidb.Open(oblidb.Config{})
//	if err != nil { ... }
//	ctx := context.Background()
//	db.ExecContext(ctx, `CREATE TABLE users (id INTEGER, name VARCHAR(16)) INDEX ON id`)
//	db.ExecContext(ctx, `INSERT INTO users VALUES (?, ?), (?, ?)`, 1, "alice", 2, "bob")
//	rows, err := db.Query(ctx, `SELECT name FROM users WHERE id = $1`, 2)
//	for rows.Next() {
//		var name string
//		rows.Scan(&name)
//	}
//
// Statements take ? or $n placeholders; Prepare parses a statement
// shape once for repeated execution with different arguments. The
// separation is part of the security model: the statement shape (which
// determines the plan, and hence everything the host observes) is
// public, while argument values bind inside the enclave and influence
// only in-enclave evaluation. A database/sql driver wrapping this API
// is available as the oblidb/driver package.
//
// Alongside SQL, the engine's compositional API (Select, Aggregate,
// GroupAggregate, Join, and their *Table variants) is available on DB,
// which is safe for concurrent use.
//
// To serve a database over the network, run cmd/oblidb-server and
// connect with the client package (or oblidb-cli -connect): the server
// executes statements in fixed-size, dummy-padded epochs so the
// untrusted host learns nothing from request timing or rates either.
//
// There is no SGX hardware underneath: the enclave is simulated with an
// explicitly budgeted oblivious memory and a traced untrusted store, so
// the obliviousness guarantees are testable — see DESIGN.md.
package oblidb

import (
	"context"
	"errors"

	"oblidb/internal/core"
	"oblidb/internal/exec"
	"oblidb/internal/oberr"
	"oblidb/internal/sql"
)

// Error is the typed error every tier wraps failures in. Its Code is a
// stable classification that survives the wire protocol, and
// Retriable() reports mechanically whether retrying the statement can
// help (transient host faults, overload, shutdown) or cannot
// (tampering, containment failure). Extract one from any error chain
// with errors.As, or use the ErrorCode/Retriable helpers.
type Error = oberr.Error

// ErrorCode classifies an Error; see the Code* constants.
type ErrorCode = oberr.Code

// Stable error codes, carried end-to-end from the failing tier to the
// client. See internal/oberr for the semantics of each.
const (
	CodeUnknown      = oberr.CodeUnknown
	CodeStoreFault   = oberr.CodeStoreFault
	CodeAuth         = oberr.CodeAuth
	CodeOverload     = oberr.CodeOverload
	CodeShutdown     = oberr.CodeShutdown
	CodeConnLost     = oberr.CodeConnLost
	CodeUnavailable  = oberr.CodeUnavailable
	CodeEngineFailed = oberr.CodeEngineFailed
)

// ErrorCodeOf extracts the classification from an error chain;
// CodeUnknown when none is present.
func ErrorCodeOf(err error) ErrorCode { return oberr.CodeOf(err) }

// Retriable reports whether the error chain carries a retriable
// classification. Unclassified errors are not retriable.
func Retriable(err error) bool { return oberr.Retriable(err) }

// Config configures a database; see core.Config for fields. The zero
// value gets the paper's defaults (20 MB oblivious memory, no padding).
type Config = core.Config

// PaddingConfig enables padding mode (§2.3 of the paper).
type PaddingConfig = core.PaddingConfig

// Result is a materialized query result.
type Result = core.Result

// TableOptions configures table creation.
type TableOptions = core.TableOptions

// SelectOptions configures selection queries.
type SelectOptions = core.SelectOptions

// JoinOptions configures join queries.
type JoinOptions = core.JoinOptions

// AggregateSpec names one aggregate over a column.
type AggregateSpec = core.AggregateSpec

// KeyRange is an inclusive range on an indexed column.
type KeyRange = core.KeyRange

// Storage methods (§3 of the paper).
const (
	KindFlat    = core.KindFlat
	KindIndexed = core.KindIndexed
	KindBoth    = core.KindBoth
)

// Aggregate kinds.
const (
	AggCount = exec.AggCount
	AggSum   = exec.AggSum
	AggMin   = exec.AggMin
	AggMax   = exec.AggMax
	AggAvg   = exec.AggAvg
)

// ErrNoRows is returned by Row.Scan when the query matched no rows.
var ErrNoRows = errors.New("oblidb: no rows in result set")

// DB is an ObliDB database handle: the engine plus a SQL executor.
type DB struct {
	*core.DB
	sqlExec *sql.Executor
}

// Open creates a database inside a fresh simulated enclave.
func Open(cfg Config) (*DB, error) {
	inner, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{DB: inner, sqlExec: sql.New(inner)}, nil
}

// Exec parses and runs one SQL statement with no bound arguments. DDL
// and DML return a one-row result with the affected count. It is the
// thin compatibility form of ExecContext.
func (db *DB) Exec(query string) (*Result, error) {
	return db.sqlExec.Execute(query)
}

// ExecContext parses (or recalls from the plan cache) one SQL statement
// and runs it with args bound to its ? / $n placeholders. The context
// is honored between statements: cancellation before execution starts
// prevents it, but an in-flight oblivious operator always runs to
// completion (interrupting one would truncate its padded access
// sequence, and the truncation point would leak).
func (db *DB) ExecContext(ctx context.Context, query string, args ...any) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return db.sqlExec.Execute(query, vals...)
}

// Query runs one SQL statement with bound arguments and returns a
// cursor over its rows. Like all ObliDB results the rows are fully
// materialized before the cursor is handed back; Rows is an iteration
// convenience, not a streaming plan.
func (db *DB) Query(ctx context.Context, query string, args ...any) (*Rows, error) {
	res, err := db.ExecContext(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// QueryRow runs a query expected to return at most one row. Scan it
// with Rows.Scan semantics via the returned cursor helper.
func (db *DB) QueryRow(ctx context.Context, query string, args ...any) *Row {
	rows, err := db.Query(ctx, query, args...)
	if err != nil {
		return &Row{err: err}
	}
	return &Row{rows: rows}
}

// Row is the result of QueryRow: a deferred one-row Scan.
type Row struct {
	rows *Rows
	err  error
}

// Scan copies the single result row into dest, or reports ErrNoRows
// when the query matched nothing.
func (r *Row) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	defer r.rows.Close()
	if !r.rows.Next() {
		return ErrNoRows
	}
	return r.rows.Scan(dest...)
}

// PlanCacheStats reports the executor's plan-cache size and hit/miss
// counters — a plan-once/execute-many observability hook.
func (db *DB) PlanCacheStats() (entries int, hits, misses uint64) {
	return db.sqlExec.PlanCacheStats()
}

// CacheStats reports the executor's full plan-cache counters: parse
// hits/misses plus compiled-plan compilations and replays. Re-executing
// a cached statement shape replays its compiled physical plan —
// CompileSkips counts those fast-path executions. The engine's
// per-algorithm pick tallies are available via PlanStats (promoted from
// the embedded engine handle).
func (db *DB) CacheStats() sql.CacheStats { return db.sqlExec.CacheStats() }
