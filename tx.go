package oblidb

import (
	"context"
	"errors"

	"oblidb/internal/sql"
)

// Tx is a deferred transaction: INSERT/UPDATE/DELETE issued on it are
// buffered (each reporting 0 affected rows) and applied atomically at
// Commit, under one hold of the engine mutex — and, when a write-ahead
// log is attached, as one durable journal commit, so after a crash the
// transaction is either fully present or fully absent. Queries on the
// Tx execute immediately against the pre-transaction snapshot; they do
// not see the buffered writes. DDL cannot run inside a transaction.
//
// A Tx is not safe for concurrent use. After Commit or Rollback it is
// spent; further calls error.
type Tx struct {
	db   *DB
	st   sql.TxState
	done bool
}

// Begin opens a transaction. The engine itself imposes no limit on how
// many transactions are open at once — each buffers independently and
// serializes at Commit.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx := &Tx{db: db}
	if err := tx.st.Begin(); err != nil {
		return nil, err
	}
	return tx, nil
}

// ExecContext runs one statement inside the transaction: writes are
// buffered until Commit (returning an affected count of 0 now), reads
// run immediately against the pre-transaction snapshot.
func (tx *Tx) ExecContext(ctx context.Context, query string, args ...any) (*Result, error) {
	if tx.done {
		return nil, errors.New("oblidb: transaction has already been committed or rolled back")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	prep, err := tx.db.sqlExec.PrepareOneShot(query)
	if err != nil {
		return nil, err
	}
	if sql.IsTxControl(prep.Stmt()) {
		return nil, errors.New("oblidb: use the Tx methods for transaction control")
	}
	return tx.st.Route(sql.Local(tx.db.sqlExec), prep, vals)
}

// Query runs a read inside the transaction. It sees the
// pre-transaction snapshot, not the buffered writes.
func (tx *Tx) Query(ctx context.Context, query string, args ...any) (*Rows, error) {
	res, err := tx.ExecContext(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// Commit applies the buffered writes atomically. The result's single
// cell is the transaction's total affected-row count. On error the
// engine has rolled the batch back — the transaction is spent either
// way.
func (tx *Tx) Commit(ctx context.Context) (*Result, error) {
	if tx.done {
		return nil, errors.New("oblidb: transaction has already been committed or rolled back")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx.done = true
	return tx.st.Commit(sql.Local(tx.db.sqlExec))
}

// Rollback discards the buffered writes.
func (tx *Tx) Rollback() error {
	if tx.done {
		return errors.New("oblidb: transaction has already been committed or rolled back")
	}
	tx.done = true
	return tx.st.Rollback()
}
