package core

import (
	"fmt"

	"oblidb/internal/exec"
	"oblidb/internal/oberr"
	"oblidb/internal/plan"
	"oblidb/internal/planner"
	"oblidb/internal/table"
)

// This file is the engine's plan interpreter: it executes the physical
// plan IR of internal/plan by wrapping the oblivious operators. It is
// the only way a statement reaches an operator or a write body —
// compiled SQL and the programmatic reads and writes of query.go all
// arrive through ExecutePlan. The
// interpreter holds the database lock for the whole statement and makes
// no data-dependent decisions of its own: each node maps onto one fixed
// operator invocation.

// TableMeta implements plan.Catalog with the engine's public metadata.
// It reads catalog metadata only, so it takes the shared lock: plan
// compilation for one slot must not stall the read slots of the same
// epoch (an exclusive acquisition would park every later shared one
// behind it).
func (db *DB) TableMeta(name string) (plan.TableMeta, bool) {
	db.lockShared()
	defer db.mu.RUnlock()
	return db.tableMeta(name)
}

// tableMeta is TableMeta without the lock.
func (db *DB) tableMeta(name string) (plan.TableMeta, bool) {
	t, err := db.lookup(name)
	if err != nil {
		return plan.TableMeta{}, false
	}
	return db.metaFor(t), true
}

// metaFor builds the public metadata of a table handle (which may be an
// unregistered intermediate).
func (db *DB) metaFor(t *Table) plan.TableMeta {
	m := plan.TableMeta{
		RecordSize: t.schema.RecordSize(),
		NumColumns: t.schema.NumColumns(),
	}
	if t.keyCol >= 0 {
		m.KeyColumn = t.schema.Col(t.keyCol).Name
	}
	if t.index != nil {
		m.HasIndex = true
		m.IndexHeight = t.index.Height()
		m.IndexAccessesPerOp = t.index.AccessesPerOp()
		m.IndexRowsPerBlock = t.index.RowsPerBlock()
	}
	if t.flat != nil {
		m.HasFlat = true
		m.Blocks = t.flat.NumBlocks()
		m.Rows = t.flat.Capacity()
		m.RowsPerBlock = t.flat.RowsPerBlock()
	} else {
		// Index-only tables materialize scans through db.materialize,
		// which packs the intermediate at the engine's geometry — report
		// that geometry so plan costs match what executes.
		r := db.rowsPerBlockFor(t.schema)
		rows := t.index.NumRows()
		m.Blocks = (rows + r - 1) / r
		if m.Blocks < 1 {
			m.Blocks = 1
		}
		m.Rows = m.Blocks * r
		m.RowsPerBlock = r
	}
	return m
}

// lockedCatalog adapts the (already locked) database for the optimizer
// pass, which runs under the database mutex.
type lockedCatalog struct{ db *DB }

func (c lockedCatalog) TableMeta(name string) (plan.TableMeta, bool) {
	return c.db.tableMeta(name)
}

// ExplainPlan runs the optimizer pass over a compiled plan — every
// node gets the algorithm, parallelism, and padded cost estimate the
// planner derives from public sizes alone — and renders the annotated
// tree. Annotation and rendering both happen under the database mutex:
// compiled plans are shared across executions (and across concurrent
// EXPLAINs of one shape), so the Choice fields must never be read while
// another annotation writes them. The interpreter's runtime decisions
// use the same choosers with the stats scan's exact |R| where one runs.
func (db *DB) ExplainPlan(root plan.Node) []string {
	db.lockWrite()
	defer db.mu.Unlock()
	planner.Annotate(root, lockedCatalog{db}, db.enc, db.cfg.Planner, db.Workers())
	return plan.Explain(root)
}

// ExecutePlan runs a compiled plan with the given binder supplying this
// execution's argument values. Deferred evaluation errors surface after
// the operators complete — they must run their full padded access
// sequences regardless.
//
// A write is a write run of one group (ExecutePlanBatch). Read-only
// plans (plan.ReadOnly) that do not partition run under the shared side
// of the database lock on a pooled read-slot context, so the server's
// epoch workers execute them concurrently; everything else takes the
// exclusive side.
func (db *DB) ExecutePlan(root plan.Node, b plan.Binder) (*Result, error) {
	switch root.(type) {
	case *plan.Insert, *plan.Update, *plan.Delete:
		res, errs := db.ExecutePlanBatch([][]PlanBinding{{{Root: root, Binder: b}}})
		if errs[0] != nil {
			return nil, errs[0]
		}
		return res[0], nil
	}
	ec, release := db.begin(root)
	defer release()
	if err := db.refuseBroken(); err != nil {
		return nil, err
	}
	res, err := db.runPlan(ec, root, b)
	if err != nil {
		return nil, err
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// runPlan executes a statement-level plan node.
func (db *DB) runPlan(ec *execCtx, n plan.Node, b plan.Binder) (*Result, error) {
	switch x := n.(type) {
	case *plan.Collect:
		return db.runCollect(ec, x, b)
	case *plan.Aggregate:
		t, key, cond, names, err := db.planSource(ec, x.Input, b)
		if err != nil {
			return nil, err
		}
		pred, err := b.Pred(cond, t.schema, names)
		if err != nil {
			return nil, err
		}
		return db.aggregateTable(ec, t, pred, x.Specs, names, key)
	case *plan.Tx:
		// BEGIN/COMMIT/ROLLBACK compile to a plan node so EXPLAIN and the
		// plan cache treat them uniformly, but they carry session state the
		// engine does not hold — a transaction-aware surface (the server's
		// sessions, the driver, oblidb.DB.Begin) must route them.
		return nil, fmt.Errorf("core: %s must run through a transaction-aware session", x.Kind)
	}
	return nil, fmt.Errorf("core: cannot execute plan node %T as a statement", n)
}

// runWrite binds a write node's arguments and runs its body, returning
// the affected row count.
func (db *DB) runWrite(n plan.Node, b plan.Binder) (int, error) {
	switch x := n.(type) {
	case *plan.Insert:
		rows := make([]table.Row, len(x.Rows))
		for i, exprs := range x.Rows {
			row, err := b.RowValues(exprs)
			if err != nil {
				return 0, err
			}
			rows[i] = row
		}
		return len(rows), db.insertRowsBody(x.Table, rows)
	case *plan.Update:
		t, err := db.lookup(x.Table)
		if err != nil {
			return 0, err
		}
		pred, err := b.Pred(x.Cond, t.schema, nil)
		if err != nil {
			return 0, err
		}
		upd, err := b.Updater(x.Sets, t.schema)
		if err != nil {
			return 0, err
		}
		return db.rewriteRows(t, pred, upd, engineRange(x.Key))
	case *plan.Delete:
		t, err := db.lookup(x.Table)
		if err != nil {
			return 0, err
		}
		pred, err := b.Pred(x.Cond, t.schema, nil)
		if err != nil {
			return 0, err
		}
		return db.rewriteRows(t, pred, nil, engineRange(x.Key))
	}
	return 0, fmt.Errorf("core: plan node %T is not a write", n)
}

// PlanBinding pairs a compiled plan with the binder holding one
// execution's argument values.
type PlanBinding struct {
	Root   plan.Node
	Binder plan.Binder
}

// ExecutePlanBatch executes a run of write groups — the server's
// consecutive write slots of one epoch, each an autocommit write (a
// group of one) or a transaction's COMMIT (its buffered writes), or
// ExecutePlan's one write — under
// one hold of the database mutex, with one flat pass per table the run
// touches and one journal commit for the run. Each statement's index
// work, validation, undo and journal records still happen in order, so
// every statement sees the ones before it. A group is the atomic unit:
// one that fails on its own — a bind, validation or deferred evaluation
// error, found before the run's flush — is undone alone, to its own
// marks, and answers its own error, and the run goes on. A typed
// failure (a store fault, a refused access), a failed flush or a failed
// journal commit rolls the whole run back and answers every group with
// the same error, so each is a no-op and a retriable one may simply be
// retried (DESIGN.md §17). It returns one result or error per group —
// the affected-row sum of the group's statements — and nothing is
// acknowledged before the commit.
func (db *DB) ExecutePlanBatch(groups [][]PlanBinding) ([]*Result, []error) {
	db.lockWrite()
	defer db.mu.Unlock()
	errs := make([]error, len(groups))
	fail := func(err error) ([]*Result, []error) {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return nil, errs
	}
	if err := db.refuseBroken(); err != nil {
		return fail(err)
	}
	walMark, undoMark := db.mutationMarks()
	counts := make([]int, len(groups))
	var runErr error
	for i, g := range groups {
		wm, um := db.mutationMarks()
		n, err := db.runGroup(g)
		if err == nil {
			counts[i] = n
			continue
		}
		if oberr.CodeOf(err) == oberr.CodeUnknown {
			// The group's own failure: undo it alone. Only a failed
			// undo, which latches the engine, ends the run.
			err = db.endMutation(err, wm, um)
		}
		if oberr.CodeOf(err) != oberr.CodeUnknown {
			runErr = err
			break
		}
		errs[i] = err
	}
	if runErr == nil {
		runErr = db.flushAll()
	}
	if runErr != nil {
		if db.broken == nil {
			if rerr := db.rollbackTo(walMark, undoMark); rerr != nil {
				runErr = db.latchBroken(runErr, rerr)
			}
		}
		return fail(runErr)
	}
	if err := db.commitLocked(walMark, undoMark); err != nil {
		return fail(err)
	}
	results := make([]*Result, len(groups))
	for i := range groups {
		if errs[i] == nil {
			results[i] = AffectedResult(counts[i])
		}
	}
	return results, errs
}

// runGroup runs one group's writes in order and returns their summed
// affected count. A statement's deferred evaluation error fails it
// here, inside the bracket, so the group's undo covers it.
func (db *DB) runGroup(g []PlanBinding) (int, error) {
	total := 0
	for _, it := range g {
		n, err := db.runWrite(it.Root, it.Binder)
		if err == nil {
			err = it.Binder.Err()
		}
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runCollect materializes the subtree and decrypts it into a Result,
// applying the trailing projection (a trace-neutral in-enclave map).
func (db *DB) runCollect(ec *execCtx, c *plan.Collect, b plan.Binder) (*Result, error) {
	inner := c.Input
	var items []plan.ProjItem
	if pr, ok := inner.(*plan.Project); ok {
		items = pr.Items
		inner = pr.Input
	}
	t, names, err := db.planTable(ec, inner, b)
	if err != nil {
		return nil, err
	}
	// Surface deferred predicate evaluation errors before any row is
	// handed back.
	if err := b.Err(); err != nil {
		return nil, err
	}
	// Lower the projection before the collect pass, so its resolution
	// errors return before any row is decrypted for the client.
	var mapper func(table.Row) (table.Row, error)
	if items != nil {
		if mapper, err = b.Project(items, t.schema, names); err != nil {
			return nil, err
		}
	}
	raw, err := db.collect(ec, t)
	if err != nil {
		return nil, err
	}
	if items == nil {
		return raw, nil
	}
	out := &Result{Cols: make([]string, len(items))}
	for i, it := range items {
		out.Cols[i] = it.Name
	}
	for _, r := range raw.Rows {
		row, err := mapper(r)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// planTable materializes a table-producing plan node into an
// intermediate table, returning the join naming context its rows carry
// (nil outside joins).
func (db *DB) planTable(ec *execCtx, n plan.Node, b plan.Binder) (*Table, *plan.JoinNames, error) {
	switch x := n.(type) {
	case *plan.Filter:
		t, key, cond, names, err := db.planSource(ec, x, b)
		if err != nil {
			return nil, nil, err
		}
		pred, err := b.Pred(cond, t.schema, names)
		if err != nil {
			return nil, nil, err
		}
		out, err := db.selectTable(ec, t, pred, key, x.Force)
		if err != nil {
			return nil, nil, err
		}
		return out, names, nil
	case *plan.Join:
		return db.planJoin(ec, x, b)
	case *plan.GroupBy:
		t, key, cond, names, err := db.planSource(ec, x.Input, b)
		if err != nil {
			return nil, nil, err
		}
		pred, err := b.Pred(cond, t.schema, names)
		if err != nil {
			return nil, nil, err
		}
		groupKey, err := b.GroupKey(x.Key, t.schema, names)
		if err != nil {
			return nil, nil, err
		}
		out, err := db.groupAggregateTable(ec, t, pred, groupKey, x.Specs, names, key)
		if err != nil {
			return nil, nil, err
		}
		// The grouped output has its own [group, aggs...] schema; join
		// naming does not survive it.
		return out, nil, nil
	case *plan.Sort:
		return db.planSort(ec, x, b)
	case *plan.Limit:
		t, names, err := db.planTable(ec, x.Input, b)
		if err != nil {
			return nil, nil, err
		}
		in, _, release, err := db.inputFor(ec, t, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		defer release()
		out, err := exec.Limit(ec.enc, in, x.N, db.tmpName("limit"))
		if err != nil {
			return nil, nil, err
		}
		db.pickLimit()
		return db.wrapTemp(out), names, nil
	case *plan.Scan, *plan.IndexScan:
		// The compiler wraps leaves in Filter; a bare leaf still
		// materializes through an all-rows oblivious select (the engine
		// never hands out raw storage).
		t, key, _, _, err := db.planSource(ec, n, b)
		if err != nil {
			return nil, nil, err
		}
		out, err := db.selectTable(ec, t, table.All, key, nil)
		if err != nil {
			return nil, nil, err
		}
		return out, nil, nil
	}
	return nil, nil, fmt.Errorf("core: unexpected plan node %T in a table position", n)
}

// planSource resolves a node to (table, key range, pending filter
// condition, join names) without materializing the filter, so callers
// fuse the predicate into their own operator pass — the aggregate's
// fused scan, the sort's copy pass, the select's chosen algorithm.
func (db *DB) planSource(ec *execCtx, n plan.Node, b plan.Binder) (*Table, *KeyRange, plan.Expr, *plan.JoinNames, error) {
	switch x := n.(type) {
	case *plan.Scan:
		t, err := ec.lookup(x.Table)
		return t, nil, nil, nil, err
	case *plan.IndexScan:
		t, err := ec.lookup(x.Table)
		return t, &KeyRange{Lo: x.Range.Lo, Hi: x.Range.Hi}, nil, nil, err
	case *plan.Filter:
		switch x.Input.(type) {
		case *plan.Scan, *plan.IndexScan:
			t, key, _, _, err := db.planSource(ec, x.Input, b)
			return t, key, x.Cond, nil, err
		}
		t, names, err := db.planTable(ec, x.Input, b)
		return t, nil, x.Cond, names, err
	default:
		t, names, err := db.planTable(ec, n, b)
		return t, nil, nil, names, err
	}
}

// planJoin executes a Join node: side filters (the children's
// conditions) fuse into the join's oblivious pre-filter passes.
func (db *DB) planJoin(ec *execCtx, x *plan.Join, b plan.Binder) (*Table, *plan.JoinNames, error) {
	lt, err := ec.lookup(x.LeftTable)
	if err != nil {
		return nil, nil, err
	}
	rt, err := ec.lookup(x.RightTable)
	if err != nil {
		return nil, nil, err
	}
	sideCond := func(n plan.Node) plan.Expr {
		if f, ok := n.(*plan.Filter); ok {
			return f.Cond
		}
		return nil
	}
	var leftPred, rightPred table.Pred
	if cond := sideCond(x.Left); cond != nil {
		if leftPred, err = b.Pred(cond, lt.schema, nil); err != nil {
			return nil, nil, err
		}
	}
	if cond := sideCond(x.Right); cond != nil {
		if rightPred, err = b.Pred(cond, rt.schema, nil); err != nil {
			return nil, nil, err
		}
	}
	joined, err := db.joinTable(ec, x.LeftTable, x.RightTable, x.LeftCol, x.RightCol, JoinOptions{
		FilterLeft:  leftPred,
		FilterRight: rightPred,
		Force:       x.Force,
	})
	if err != nil {
		return nil, nil, err
	}
	names := &plan.JoinNames{Left: x.LeftTable, Right: x.RightTable, RightStart: lt.schema.NumColumns()}
	return joined, names, nil
}

// planSort executes a Sort node: the input filter fuses into OrderBy's
// copy pass (no stats scan, no |R|-sized intermediate — the trace
// depends only on the input capacity), then the bitonic network orders
// the padded table dummy-last.
func (db *DB) planSort(ec *execCtx, x *plan.Sort, b plan.Binder) (*Table, *plan.JoinNames, error) {
	t, key, cond, names, err := db.planSource(ec, x.Input, b)
	if err != nil {
		return nil, nil, err
	}
	pred, err := b.Pred(cond, t.schema, names)
	if err != nil {
		return nil, nil, err
	}
	col := -1
	if x.Key != nil {
		if col, err = b.Column(x.Key, t.schema, names); err != nil {
			return nil, nil, err
		}
	}
	in, epred, release, err := db.inputFor(ec, t, key, pred)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	pred = epred
	out, err := exec.OrderBy(ec.enc, in, pred, col, x.Desc, db.tmpName("sort"))
	if err != nil {
		return nil, nil, err
	}
	db.pickSort()
	return db.wrapTemp(out), names, nil
}

// planAggColumn resolves an aggregate's column for rows that come from
// a join (names != nil): right-side duplicates carry the r_ prefix in
// the joined schema, so a bare name that only resolves prefixed is
// rewritten. Plain tables keep strict resolution — a missing column
// stays an error even if an unrelated r_-named column exists.
func planAggColumn(s *table.Schema, col string, names *plan.JoinNames) string {
	if names == nil || col == "" {
		return col
	}
	if s.ColIndex(col) < 0 && s.ColIndex("r_"+col) >= 0 {
		return "r_" + col
	}
	return col
}

// engineRange converts a plan key range back to the engine's.
func engineRange(k *plan.KeyRange) *KeyRange {
	if k == nil {
		return nil
	}
	return &KeyRange{Lo: k.Lo, Hi: k.Hi}
}
