package sql

import (
	"fmt"
	"sync"

	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/table"
)

// binder implements plan.Binder: it carries one execution's bound
// argument values and lowers the plan's opaque shape expressions, once
// per execution, into closures the interpreter's operators evaluate
// inside the enclave. Argument values exist only here — never in the
// plan, the cache key, or anything the planner reads — so binding
// cannot influence what the host observes.
//
// Resolution errors (unknown column, unbound parameter, unknown
// function) depend only on shape and schema and return from the
// lowering methods. Runtime evaluation errors are deferred (operators
// must run their full padded access sequence regardless of row-level
// failures): the first error sticks and surfaces through Err, which the
// interpreter checks after operators complete. The capture is
// mutex-guarded because partition-parallel operators evaluate one
// predicate from several workers.
type binder struct {
	args []table.Value

	mu  sync.Mutex
	err error
}

func newBinder(args []table.Value) *binder { return &binder{args: args} }

func (b *binder) capture(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// Err reports the first deferred evaluation error.
func (b *binder) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// resolverFor builds an expression resolver for a schema, with join
// naming context when the rows come from a join.
func (b *binder) resolverFor(s *table.Schema, names *plan.JoinNames) *resolver {
	r := &resolver{schema: s, rightStart: -1, args: b.args}
	if names != nil {
		r.leftTable = names.Left
		r.rightTable = names.Right
		r.rightStart = names.RightStart
	}
	return r
}

// asExpr recovers the sql AST expression behind a plan's opaque Expr.
func asExpr(e plan.Expr) (Expr, error) {
	x, ok := e.(Expr)
	if !ok {
		return nil, fmt.Errorf("sql: plan carries a foreign expression %T", e)
	}
	return x, nil
}

// lower compiles a plan expression against rows of s with this
// execution's arguments captured (see resolver.lower). Resolution errors
// return here, before the operator that evaluates the expression runs.
func (b *binder) lower(pe plan.Expr, s *table.Schema, names *plan.JoinNames) (evalFn, error) {
	e, err := asExpr(pe)
	if err != nil {
		return nil, err
	}
	return b.resolverFor(s, names).lower(e)
}

// Pred compiles a filter condition into a predicate over rows of s.
func (b *binder) Pred(cond plan.Expr, s *table.Schema, names *plan.JoinNames) (table.Pred, error) {
	if cond == nil {
		return table.All, nil
	}
	f, err := b.lower(cond, s, names)
	if err != nil {
		return nil, err
	}
	return func(row table.Row) bool {
		v, err := f(row)
		if err != nil {
			b.capture(err)
			return false
		}
		return truthy(v)
	}, nil
}

// GroupKey compiles the grouping expression into a per-row key.
func (b *binder) GroupKey(ge plan.Expr, s *table.Schema, names *plan.JoinNames) (exec.GroupBy, error) {
	f, err := b.lower(ge, s, names)
	if err != nil {
		return nil, err
	}
	return func(r table.Row) table.Value {
		v, err := f(r)
		if err != nil {
			b.capture(err)
		}
		return v
	}, nil
}

// Column resolves a column-reference expression to its index in s.
func (b *binder) Column(ce plan.Expr, s *table.Schema, names *plan.JoinNames) (int, error) {
	e, err := asExpr(ce)
	if err != nil {
		return -1, err
	}
	cr, ok := e.(*ColumnRef)
	if !ok {
		return -1, fmt.Errorf("sql: ORDER BY key must be a column, got %T", e)
	}
	return b.resolverFor(s, names).resolve(cr)
}

// Project compiles projection items against rows of s, the collected
// result's schema. Positional items (Col >= 0) pass the input column
// through; expression items lower against s (the projection is a
// trace-neutral, in-enclave computation).
func (b *binder) Project(items []plan.ProjItem, s *table.Schema, names *plan.JoinNames) (func(table.Row) (table.Row, error), error) {
	fns := make([]evalFn, len(items))
	for i, it := range items {
		if it.Col >= 0 {
			if it.Col >= s.NumColumns() {
				return nil, fmt.Errorf("sql: projection column %d out of range", it.Col)
			}
			continue
		}
		f, err := b.lower(it.E, s, names)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return func(r table.Row) (table.Row, error) {
		out := make(table.Row, len(items))
		for i, it := range items {
			if it.Col >= 0 {
				out[i] = r[it.Col]
				continue
			}
			v, err := fns[i](r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}, nil
}

// RowValues evaluates one INSERT row's constant expressions with this
// execution's arguments bound.
func (b *binder) RowValues(exprs []plan.Expr) (table.Row, error) {
	row := make(table.Row, len(exprs))
	for i, pe := range exprs {
		e, err := asExpr(pe)
		if err != nil {
			return nil, err
		}
		v, err := constEval(e, b.args)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// Updater compiles SET clauses into an in-place row updater over s.
func (b *binder) Updater(sets []plan.SetExpr, s *table.Schema) (table.Updater, error) {
	cols := make([]int, len(sets))
	fns := make([]evalFn, len(sets))
	for i, set := range sets {
		c := s.ColIndex(set.Column)
		if c < 0 {
			return nil, fmt.Errorf("sql: no column %q", set.Column)
		}
		cols[i] = c
		f, err := b.lower(set.Value, s, nil)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return func(r table.Row) table.Row {
		for i, f := range fns {
			v, err := f(r)
			if err != nil {
				b.capture(err)
				return r
			}
			r[cols[i]] = v
		}
		return r
	}, nil
}
