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
// Read-only plans (plan.ReadOnly) that do not partition run under the
// shared side of the database lock on a pooled read-slot context, so the
// server's epoch workers execute them concurrently; everything else —
// partitioned reads, DML, DDL, transactions — takes the exclusive side.
func (db *DB) ExecutePlan(root plan.Node, b plan.Binder) (*Result, error) {
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

// runPlan executes a statement-level plan node. A read inside a run
// first flushes the run's queued flat mutations, so it sees the writes
// before it.
func (db *DB) runPlan(ec *execCtx, n plan.Node, b plan.Binder) (*Result, error) {
	if !isWrite(n) && len(db.pending) > 0 {
		if err := db.flushAll(); err != nil {
			return nil, err
		}
	}
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
	case *plan.Insert, *plan.Update, *plan.Delete:
		// The one bracket of every write: a failed body is undone and its
		// staged journal records discarded; a successful one flushes its
		// flat mutations and commits, or leaves both pending for the
		// enclosing run.
		wm, um := db.mutationMarks()
		count, err := db.runWrite(n, b)
		if err = db.endMutation(err, wm, um); err != nil {
			return nil, err
		}
		return AffectedResult(count), nil
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

// ExecutePlanTx executes a transaction's statements as one atomic run
// under a single hold of the database mutex: the flat mutations of all
// its writes flush together (one pass per table) and their journal
// records commit durably together, or any failure rolls every in-memory
// change back and discards the staged records. The engine is
// single-writer, so atomicity needs no cross-statement locking — only
// the deferred flush and commit and the undo log (see wal.go).
func (db *DB) ExecutePlanTx(items []PlanBinding) ([]*Result, error) {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return nil, err
	}
	walMark, undoMark := db.mutationMarks()
	db.inRun = true
	results := make([]*Result, 0, len(items))
	var err error
	for _, it := range items {
		var res *Result
		if res, err = db.runPlan(db.serialCtx, it.Root, it.Binder); err == nil {
			err = it.Binder.Err()
		}
		if err != nil {
			break
		}
		results = append(results, res)
	}
	db.inRun = false
	if err == nil {
		err = db.flushAll()
	}
	if err != nil {
		if rerr := db.rollbackTo(walMark, undoMark); rerr != nil {
			return nil, db.latchBroken(err, rerr)
		}
		return nil, err
	}
	if err := db.commitLocked(walMark, undoMark); err != nil {
		return nil, err
	}
	return results, nil
}

// ExecutePlanBatch executes a run of autocommit writes — the server's
// consecutive INSERT, UPDATE and DELETE slots of one epoch — under one
// hold of the database mutex, with one flat pass per table the run
// touches and one journal commit for the run. Each statement's index
// work, validation, undo and journal records still happen in order, so
// every statement sees the ones before it. A statement that fails on
// its own — a bind or validation error, found before any of its
// mutations — is undone alone and answers its own error, and the run
// goes on. A typed failure (a store fault, a refused access), a failed
// flush or a failed journal commit rolls the whole run back and answers
// every statement with the same error, so each is a no-op and a
// retriable one may simply be retried (DESIGN.md §17). It returns one
// result or error per item; nothing is acknowledged before the commit.
func (db *DB) ExecutePlanBatch(items []PlanBinding) ([]*Result, []error) {
	db.lockWrite()
	defer db.mu.Unlock()
	errs := make([]error, len(items))
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
	counts := make([]int, len(items))
	db.inRun = true
	var runErr error
	for i, it := range items {
		if !isWrite(it.Root) {
			errs[i] = fmt.Errorf("core: batch item %d is %T, not a write", i, it.Root)
			continue
		}
		wm, um := db.mutationMarks()
		n, err := db.runWrite(it.Root, it.Binder)
		if err == nil {
			counts[i] = n
			continue
		}
		if oberr.CodeOf(err) != oberr.CodeUnknown {
			runErr = err
			break
		}
		if err = db.endMutation(err, wm, um); oberr.CodeOf(err) == oberr.CodeEngineFailed {
			runErr = err
			break
		}
		errs[i] = err
	}
	db.inRun = false
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
	results := make([]*Result, len(items))
	for i, it := range items {
		if errs[i] == nil {
			if errs[i] = it.Binder.Err(); errs[i] == nil {
				results[i] = AffectedResult(counts[i])
			}
		}
	}
	return results, errs
}

// isWrite reports whether n is a write statement.
func isWrite(n plan.Node) bool {
	switch n.(type) {
	case *plan.Insert, *plan.Update, *plan.Delete:
		return true
	}
	return false
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
