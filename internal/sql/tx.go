package sql

import (
	"errors"
	"fmt"

	"oblidb/internal/core"
	"oblidb/internal/table"
)

// This file is the SQL layer's transaction support and the one statement
// router every surface shares. Transactions are *deferred*: writes
// issued between BEGIN and COMMIT are buffered as prepared statements
// plus their bound arguments, and COMMIT hands them to the engine as one
// group of a write run (ExecBatch, core.DB.ExecutePlanBatch), which
// applies the group atomically: all of it or, on any failure, none of
// it, with the run's one durable journal commit. Reads inside a
// transaction execute immediately against the pre-transaction snapshot —
// they do not see the buffered writes, the same trade Obladi makes to
// keep epoch batching intact (PAPERS.md): the server commits ride the
// existing epoch slots unchanged, so an open transaction is invisible in
// the padded statement stream.
//
// Transaction state is per-session (a server connection, a driver conn,
// an oblidb.Tx, the shell's embedded engine), never per-Executor — the
// Executor is shared across sessions. Every session sends its statements
// through TxState.Route; what differs between surfaces is only how a
// statement runs now and how a COMMIT batch applies, which each supplies
// as a Runner.

// IsBegin reports whether stmt is BEGIN.
func IsBegin(stmt Statement) bool { _, ok := stmt.(*Begin); return ok }

// IsCommit reports whether stmt is COMMIT.
func IsCommit(stmt Statement) bool { _, ok := stmt.(*Commit); return ok }

// IsRollback reports whether stmt is ROLLBACK.
func IsRollback(stmt Statement) bool { _, ok := stmt.(*Rollback); return ok }

// IsTxControl reports whether stmt is BEGIN, COMMIT, or ROLLBACK.
func IsTxControl(stmt Statement) bool {
	return IsBegin(stmt) || IsCommit(stmt) || IsRollback(stmt)
}

// IsWrite reports whether stmt is a DML write a transaction buffers.
func IsWrite(stmt Statement) bool {
	switch stmt.(type) {
	case *Insert, *Update, *Delete:
		return true
	}
	return false
}

// IsDDL reports whether stmt changes the catalog. DDL is rejected
// inside explicit transactions: a CREATE/DROP must commit durably in
// lockstep with its (irreversible) in-memory effect.
func IsDDL(stmt Statement) bool {
	switch stmt.(type) {
	case *CreateTable, *DropTable:
		return true
	}
	return false
}

var errDDLInTx = errors.New("sql: DDL cannot run inside a transaction")

// TxItem is one buffered write: the prepared statement and the argument
// values it was issued with.
type TxItem struct {
	Prep *Prepared
	Args []table.Value
}

// Runner is what a surface supplies to Route: Run executes a statement
// now, Commit applies a committed transaction's buffered writes. In
// process they are Prepared.Exec and a one-group Executor.ExecBatch
// (see Local). The server instead queues either as an epoch-slot job
// that answers the client itself, and returns a nil result.
type Runner struct {
	Run    func(prep *Prepared, args []table.Value) (*core.Result, error)
	Commit func(items []TxItem) (*core.Result, error)
}

// Local is the in-process Runner: statements execute at once and a
// committed transaction applies as a write run of one group.
func Local(x *Executor) Runner {
	return Runner{Run: (*Prepared).Exec, Commit: func(items []TxItem) (*core.Result, error) {
		res, errs := x.ExecBatch([][]TxItem{items})
		return res[0], errs[0]
	}}
}

// TxState is one session's transaction: whether one is open and the
// writes buffered so far. The zero value is ready to use. Not safe for
// concurrent use — each session owns its state.
type TxState struct {
	active bool
	items  []TxItem
}

// Active reports whether a transaction is open.
func (t *TxState) Active() bool { return t.active }

// Pending reports how many writes are buffered.
func (t *TxState) Pending() int { return len(t.items) }

// Route dispatches one statement of the session. The argument count
// must match the statement's placeholders. BEGIN, COMMIT and ROLLBACK
// go to Control. Inside a transaction DDL is rejected, and writes are
// buffered until COMMIT, each acknowledged with zero affected rows.
// Everything else goes to r.Run, including reads inside a transaction,
// which see the pre-transaction snapshot.
func (t *TxState) Route(r Runner, prep *Prepared, args []table.Value) (*core.Result, error) {
	if err := checkArity(prep.NumParams(), len(args)); err != nil {
		return nil, err
	}
	switch stmt := prep.Stmt(); {
	case IsTxControl(stmt):
		return t.Control(r, stmt)
	case t.active && IsDDL(stmt):
		return nil, errDDLInTx
	case t.active && IsWrite(stmt):
		if err := t.Buffer(prep, args); err != nil {
			return nil, err
		}
		return core.AffectedResult(0), nil
	}
	return r.Run(prep, args)
}

// Control applies BEGIN, COMMIT or ROLLBACK, whether it arrived as SQL
// text through Route or from a transaction API or protocol frame. BEGIN
// and ROLLBACK answer with the zero-affected acknowledgment; COMMIT's
// result is r.Commit's.
func (t *TxState) Control(r Runner, stmt Statement) (*core.Result, error) {
	var err error
	switch stmt.(type) {
	case *Begin:
		err = t.Begin()
	case *Commit:
		return t.Commit(r)
	case *Rollback:
		err = t.Rollback()
	default:
		err = fmt.Errorf("sql: %s is not transaction control", KindOf(stmt))
	}
	if err != nil {
		return nil, err
	}
	return core.AffectedResult(0), nil
}

// Begin opens a transaction.
func (t *TxState) Begin() error {
	if t.active {
		return fmt.Errorf("sql: transaction already open")
	}
	t.active = true
	t.items = t.items[:0]
	return nil
}

// Buffer defers one write until COMMIT. The statement must be DML.
func (t *TxState) Buffer(prep *Prepared, args []table.Value) error {
	if !t.active {
		return fmt.Errorf("sql: no open transaction")
	}
	if IsDDL(prep.Stmt()) {
		return errDDLInTx
	}
	if !IsWrite(prep.Stmt()) {
		return fmt.Errorf("sql: only INSERT, UPDATE, and DELETE can be buffered")
	}
	t.items = append(t.items, TxItem{Prep: prep, Args: args})
	return nil
}

// Take closes the transaction and returns its buffered writes.
func (t *TxState) Take() ([]TxItem, error) {
	if !t.active {
		return nil, fmt.Errorf("sql: no open transaction")
	}
	items := t.items
	t.items = nil
	t.active = false
	return items, nil
}

// Commit closes the transaction and hands its buffered writes to
// r.Commit. An empty transaction still commits, so commits look alike.
func (t *TxState) Commit(r Runner) (*core.Result, error) {
	items, err := t.Take()
	if err != nil {
		return nil, err
	}
	return r.Commit(items)
}

// Rollback closes the transaction, discarding its buffered writes.
func (t *TxState) Rollback() error {
	if !t.active {
		return fmt.Errorf("sql: no open transaction")
	}
	t.items = nil
	t.active = false
	return nil
}

// ExecBatch executes a write run — the groups of one engine batch
// (core.DB.ExecutePlanBatch), each an autocommit write (a group of one)
// or a committed transaction's buffered writes: one flat pass per table
// and one journal commit for the run. It returns one result or error
// per group; a group's result sums its statements' affected rows. A
// group with an item whose arity or compilation fails answers that
// error and stays out of the batch; the engine answers the rest, and
// rejects any item that is not a write.
func (x *Executor) ExecBatch(groups [][]TxItem) ([]*core.Result, []error) {
	results := make([]*core.Result, len(groups))
	errs := make([]error, len(groups))
	bound := make([][]core.PlanBinding, 0, len(groups))
	idx := make([]int, 0, len(groups))
	for i, g := range groups {
		var bindings []core.PlanBinding
		if bindings, errs[i] = x.bindGroup(g); errs[i] == nil {
			bound = append(bound, bindings)
			idx = append(idx, i)
		}
	}
	if len(bound) == 0 {
		return results, errs
	}
	res, berrs := x.db.ExecutePlanBatch(bound)
	for k, i := range idx {
		if errs[i] = berrs[k]; errs[i] == nil {
			results[i] = res[k]
		}
	}
	return results, errs
}

// bindGroup checks each item's arity and binds its compiled plan.
func (x *Executor) bindGroup(g []TxItem) ([]core.PlanBinding, error) {
	bindings := make([]core.PlanBinding, len(g))
	for i, it := range g {
		if err := checkArity(it.Prep.NumParams(), len(it.Args)); err != nil {
			return nil, err
		}
		root, err := x.compiledPlan(it.Prep.entry)
		if err != nil {
			return nil, err
		}
		bindings[i] = core.PlanBinding{Root: root, Binder: newBinder(it.Args)}
	}
	return bindings, nil
}
