package core

import (
	"errors"
	"fmt"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/planner"
	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// Result is a materialized query result, decrypted inside the enclave for
// delivery to the client (who talks to the enclave over a secure channel;
// result contents are outside the adversary's view, their size is not).
type Result struct {
	Cols []string
	Rows []table.Row
	// Affected marks a DDL/DML outcome: the single cell is the affected
	// row count, not query output. Consumers (the database/sql driver's
	// RowsAffected) key on this flag rather than sniffing column names.
	Affected bool
}

// AffectedResult is the one-row result DDL and DML return, and the
// zero-affected acknowledgment of transaction control.
func AffectedResult(n int) *Result {
	return &Result{Cols: []string{"affected"}, Rows: []table.Row{{table.Int(int64(n))}}, Affected: true}
}

// SelectOptions configures a selection query.
type SelectOptions struct {
	// KeyRange restricts the query via the table's index when one exists:
	// "the linear scan begins inside an ORAM at a point specified by an
	// index lookup" (§4.1).
	KeyRange *KeyRange
	// Projection lists output columns (nil means all).
	Projection []string
	// Force overrides the planner's algorithm choice ("users can also
	// manually choose to force a particular operator", §5).
	Force *exec.SelectAlgorithm
}

// The programmatic reads and writes below are plan constructors: each
// builds the plan a SQL statement of the same shape compiles to and runs
// it through ExecutePlan, so locking, read-slot checkout, the
// broken-engine latch, the plan interpreter and the write bracket (undo
// and journal staging) are the same for both surfaces. The plans'
// expression slots hold the caller's Go values, which funcBinder hands
// back to the interpreter.

// Insert adds rows to a table, writing to every storage representation it
// keeps (§3.3: "Using both storage methods ... incurring the cost of both
// for insertions"). It runs the plan Insert, each row in its expression
// slot.
func (db *DB) Insert(name string, rows ...table.Row) error {
	exprs := make([][]plan.Expr, len(rows))
	for i, r := range rows {
		exprs[i] = []plan.Expr{r}
	}
	_, err := db.ExecutePlan(&plan.Insert{Table: name, Rows: exprs}, funcBinder{})
	return err
}

// Delete removes the rows matching pred, optionally narrowed by a key
// range on the indexed column. It returns the count removed — already
// public as the change in table size. It runs the plan Delete.
func (db *DB) Delete(name string, pred table.Pred, key *KeyRange) (int, error) {
	return affected(db.ExecutePlan(&plan.Delete{Table: name, Cond: predExpr(pred), Key: planRange(key)}, funcBinder{}))
}

// Update rewrites rows matching pred with upd, optionally narrowed by a
// key range. Key-column changes are handled as delete+insert on indexes.
// It runs the plan Update, upd in its one assignment's value slot.
func (db *DB) Update(name string, pred table.Pred, upd table.Updater, key *KeyRange) (int, error) {
	return affected(db.ExecutePlan(&plan.Update{
		Table: name, Sets: []plan.SetExpr{{Value: upd}}, Cond: predExpr(pred), Key: planRange(key),
	}, funcBinder{}))
}

// affected unwraps a write's AffectedResult into its count.
func affected(res *Result, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return int(res.Rows[0][0].AsInt()), nil
}

// Select runs an oblivious selection and materializes the result: the
// plan Collect(Filter(Scan|IndexScan)), under a Project when
// opts.Projection names columns.
func (db *DB) Select(name string, pred table.Pred, opts SelectOptions) (*Result, error) {
	var root plan.Node = &plan.Filter{Input: leaf(name, opts.KeyRange), Cond: predExpr(pred), Force: opts.Force}
	if len(opts.Projection) > 0 {
		items := make([]plan.ProjItem, len(opts.Projection))
		for i, col := range opts.Projection {
			items[i] = plan.ProjItem{Col: -1, E: col, Name: col}
		}
		root = &plan.Project{Input: root, Items: items}
	}
	return db.ExecutePlan(&plan.Collect{Input: root}, funcBinder{})
}

// leaf is the plan leaf of a read: an IndexScan over key when one is
// given (the interpreter still serves it by flat scan when the planner
// prices that cheaper), a full Scan otherwise.
func leaf(name string, key *KeyRange) plan.Node {
	if key == nil {
		return &plan.Scan{Table: name}
	}
	return &plan.IndexScan{Table: name, Range: *planRange(key)}
}

// planRange converts an engine key range to the plan's (nil stays nil).
func planRange(key *KeyRange) *plan.KeyRange {
	if key == nil {
		return nil
	}
	return &plan.KeyRange{Lo: key.Lo, Hi: key.Hi}
}

// predExpr stores a predicate in a plan's condition slot; a nil
// predicate stays a nil condition (all rows).
func predExpr(pred table.Pred) plan.Expr {
	if pred == nil {
		return nil
	}
	return pred
}

// funcBinder is the plan.Binder of the programmatic reads and writes.
// Their plans carry no SQL: a condition slot holds a table.Pred, a group
// key slot an exec.GroupBy, a projection item the name of a column, an
// insert row's one expression slot the table.Row, and an update's one
// assignment the table.Updater. Go callbacks report no deferred
// evaluation errors.
type funcBinder struct{}

func (funcBinder) Pred(cond plan.Expr, _ *table.Schema, _ *plan.JoinNames) (table.Pred, error) {
	if cond == nil {
		return table.All, nil
	}
	pred, ok := cond.(table.Pred)
	if !ok {
		return nil, fmt.Errorf("core: condition %T is not a predicate", cond)
	}
	return pred, nil
}

func (funcBinder) GroupKey(e plan.Expr, _ *table.Schema, _ *plan.JoinNames) (exec.GroupBy, error) {
	key, _ := e.(exec.GroupBy)
	if key == nil {
		return nil, fmt.Errorf("core: grouped aggregation needs a group key")
	}
	return key, nil
}

func (funcBinder) Project(items []plan.ProjItem, s *table.Schema, _ *plan.JoinNames) (func(table.Row) (table.Row, error), error) {
	idx := make([]int, len(items))
	for i, it := range items {
		name, _ := it.E.(string)
		if idx[i] = s.ColIndex(name); idx[i] < 0 {
			return nil, fmt.Errorf("core: no column %q", name)
		}
	}
	return func(r table.Row) (table.Row, error) {
		out := make(table.Row, len(idx))
		for i, c := range idx {
			out[i] = r[c]
		}
		return out, nil
	}, nil
}

func (funcBinder) Column(plan.Expr, *table.Schema, *plan.JoinNames) (int, error) {
	return 0, fmt.Errorf("core: programmatic reads do not sort")
}

func (funcBinder) RowValues(exprs []plan.Expr) (table.Row, error) {
	if len(exprs) == 1 {
		if row, ok := exprs[0].(table.Row); ok {
			return row, nil
		}
	}
	return nil, fmt.Errorf("core: an insert row slot must hold one table.Row")
}

func (funcBinder) Updater(sets []plan.SetExpr, _ *table.Schema) (table.Updater, error) {
	if len(sets) == 1 {
		if upd, ok := sets[0].Value.(table.Updater); ok && upd != nil {
			return upd, nil
		}
	}
	return nil, fmt.Errorf("core: an update needs one table.Updater assignment")
}

func (funcBinder) Err() error { return nil }

// selectTable runs an oblivious selection into an intermediate table on
// the execution context c, reading through key when the planner routes
// it to the index and running force in place of the planner's pick when
// set. The planner's statistics supply |R| and contiguity. A serial
// select that may run Small gathers them in Small's own first pass and
// stops there when the matches fit the buffer; otherwise (and on the
// partitioned path) they come from a stats pass before the operator.
// Padding mode keeps the stats pass and pads the output (§2.3).
func (db *DB) selectTable(c *execCtx, t *Table, pred table.Pred, key *KeyRange, force *exec.SelectAlgorithm) (*Table, error) {
	if pred == nil {
		pred = table.All
	}
	in, epred, release, err := db.inputFor(c, t, key, pred)
	if err != nil {
		return nil, err
	}
	defer release()
	pred = epred

	recSize := t.schema.RecordSize()
	name := db.tmpName("select")
	var execOpts exec.SelectOptions
	var alg exec.SelectAlgorithm
	if db.cfg.Padding.Enabled {
		// Padding mode: no planning, fixed general-purpose operator,
		// output padded to the configured bound. Its stats pass stays:
		// stopping after a pass that fits would reveal |R| ≤ B.
		st, err := planner.ScanStats(in, pred)
		if err != nil {
			return nil, err
		}
		if st.Matching > db.cfg.Padding.PadRows {
			return nil, fmt.Errorf("core: %d matching rows exceed the padding bound %d", st.Matching, db.cfg.Padding.PadRows)
		}
		execOpts.OutSize = db.cfg.Padding.PadRows
		alg = exec.SelectHash
		db.setLastPlan(PlanInfo{SelectAlg: alg, Stats: st})
		db.pickSelect(alg.String())
		// The Hash operator places st.Matching real rows among the padded
		// structure; pred gates real writes, the pad hides |R|.
		out, err := db.runSelect(c, in, pred, alg, execOpts, name)
		if err != nil {
			return nil, err
		}
		return db.wrapTemp(out), nil
	}

	// A select that may run Small serially gathers its statistics in
	// Small's first pass (DESIGN §5); a partitioned dispatch keeps the
	// stats pass ahead of its partition scan.
	var st planner.SelectStats
	_, parts := db.partitionsFor(c, in, recSize)
	if (force == nil || *force == exec.SelectSmall) && parts < 2 {
		sc := planner.NewStatsScan(in)
		out, err := exec.SelectSmallOnePass(c.enc, in, pred, sc.Match, name)
		if err != nil {
			return nil, err
		}
		st = sc.Stats()
		if out != nil {
			db.setLastPlan(PlanInfo{SelectAlg: exec.SelectSmall, Stats: st, UsedIndex: db.useIndexFor(t, key)})
			db.pickSelect(exec.SelectSmall.String())
			return db.wrapTemp(out), nil
		}
	} else if st, err = planner.ScanStats(in, pred); err != nil {
		return nil, err
	}
	if force != nil {
		alg = *force
	} else {
		// Pricing runs against the parent enclave's budget — shared by
		// all contexts — so the pick is interleaving-independent.
		alg = planner.ChooseSelect(db.enc, recSize, st, db.cfg.Planner)
	}
	db.setLastPlan(PlanInfo{SelectAlg: alg, Stats: st, UsedIndex: db.useIndexFor(t, key)})
	db.pickSelect(alg.String())
	execOpts.OutSize = st.Matching
	out, err := db.runSelect(c, in, pred, alg, execOpts, name)
	if err != nil {
		return nil, err
	}
	return db.wrapTemp(out), nil
}

// runSelect invokes the operator into the table name, retrying hash
// overflow with fresh salts (the Azar-bound failure case, §4.1).
func (db *DB) runSelect(c *execCtx, in exec.Input, pred table.Pred, alg exec.SelectAlgorithm, opts exec.SelectOptions, name string) (*storage.Flat, error) {
	for attempt := 0; ; attempt++ {
		opts.Salt = uint64(attempt)
		out, err := db.execSelect(c, in, pred, alg, opts, name)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, exec.ErrHashOverflow) || attempt >= 4 {
			return nil, err
		}
	}
}

// execSelect dispatches one select to the parallel variant when the
// worker pool, the planner's partition rule, and the algorithm allow it,
// falling back to the serial operator otherwise. The dispatch decision
// uses public sizes only. The operator itself runs on the context's
// enclave.
func (db *DB) execSelect(c *execCtx, in exec.Input, pred table.Pred, alg exec.SelectAlgorithm, opts exec.SelectOptions, name string) (*storage.Flat, error) {
	if ws, f, ok := db.parallelFor(c, in, in.Schema().RecordSize()); ok && exec.ParallelizableSelect(alg) && !db.cfg.Padding.Enabled {
		out, err := exec.ParallelSelect(db.enc, ws, f, pred, alg, opts, name)
		if !errors.Is(err, exec.ErrSerialFallback) {
			return out, err
		}
	}
	return exec.Select(c.enc, in, pred, alg, opts, name)
}

// parallelFor decides whether an operator over in runs partitioned, as
// partitionsFor does. On dispatch every worker is re-budgeted to an equal
// share of the parent's unreserved memory, so the workers together never
// hold more than the parent has left (standing ORAM reservations
// included).
func (db *DB) parallelFor(c *execCtx, in exec.Input, recSize int) ([]*enclave.Enclave, *storage.Flat, bool) {
	f, p := db.partitionsFor(c, in, recSize)
	if p < 2 {
		return nil, nil, false
	}
	share := db.enc.Available() / len(db.workers)
	for _, w := range db.workers {
		w.Rebudget(share)
	}
	return db.workers[:p], f, true
}

// partitionsFor returns the partition count an operator over in would
// run with (1 for serial) and the flat table it partitions, changing
// nothing. An operator runs partitioned when the statement holds the
// exclusive lock (the pool's contexts serve as workers only there), the
// input is a flat block array, and planner.ChooseParallelism — the rule
// EXPLAIN's P= and a read's lock side come from — finds a count ≥ 2.
func (db *DB) partitionsFor(c *execCtx, in exec.Input, recSize int) (*storage.Flat, int) {
	if f, ok := exec.AsFlat(in); ok && c.serial {
		return f, planner.ChooseParallelism(db.enc, f.NumBlocks(), recSize, len(db.workers))
	}
	return nil, 1
}

// AggregateSpec is one aggregate over a named column (empty for COUNT).
type AggregateSpec struct {
	Kind   exec.AggKind
	Column string
}

// planSpecs converts the public aggregate specs into the plan's, with
// no output names: the interpreter derives them from the schema.
func planSpecs(specs []AggregateSpec) []plan.AggSpec {
	out := make([]plan.AggSpec, len(specs))
	for i, a := range specs {
		out[i] = plan.AggSpec{Kind: a.Kind, Column: a.Column}
	}
	return out
}

// resolveSpecs binds aggregate specs to column indices of s and names
// the outputs: a spec's own Name, or KIND(column) in the schema's
// spelling. names is the join naming context of the rows (nil outside
// joins; see planAggColumn).
func (db *DB) resolveSpecs(s *table.Schema, specs []plan.AggSpec, names *plan.JoinNames) ([]exec.AggSpec, []string, error) {
	out := make([]exec.AggSpec, len(specs))
	outNames := make([]string, len(specs))
	for i, a := range specs {
		col := -1
		outNames[i] = "COUNT(*)"
		if a.Kind != exec.AggCount {
			column := planAggColumn(s, a.Column, names)
			col = s.ColIndex(column)
			if col < 0 {
				return nil, nil, fmt.Errorf("core: no column %q to aggregate", column)
			}
			outNames[i] = fmt.Sprintf("%s(%s)", a.Kind, s.Col(col).Name)
		}
		if a.Name != "" {
			outNames[i] = a.Name
		}
		out[i] = exec.AggSpec{Kind: a.Kind, Col: col}
	}
	return out, outNames, nil
}

// Aggregate computes aggregates over rows matching pred in one fused
// select+aggregate pass — no intermediate table, no intermediate leakage
// (§4.2). It runs the plan Aggregate(Filter(Scan|IndexScan)).
func (db *DB) Aggregate(name string, pred table.Pred, specs []AggregateSpec, key *KeyRange) (*Result, error) {
	return db.ExecutePlan(&plan.Aggregate{
		Input: &plan.Filter{Input: leaf(name, key), Cond: predExpr(pred)},
		Specs: planSpecs(specs),
	}, funcBinder{})
}

// aggregateTable runs the fused aggregate pass over t on the execution
// context c.
func (db *DB) aggregateTable(c *execCtx, t *Table, pred table.Pred, specs []plan.AggSpec, names *plan.JoinNames, key *KeyRange) (*Result, error) {
	if pred == nil {
		pred = table.All
	}
	in, epred, release, err := db.inputFor(c, t, key, pred)
	if err != nil {
		return nil, err
	}
	defer release()
	pred = epred
	es, cols, err := db.resolveSpecs(t.schema, specs, names)
	if err != nil {
		return nil, err
	}
	var vals []table.Value
	if ws, f, ok := db.parallelFor(c, in, t.schema.RecordSize()); ok {
		vals, err = exec.ParallelAggregate(ws, f, pred, es)
	} else {
		vals, err = exec.Aggregate(in, pred, es)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cols, Rows: []table.Row{table.Row(vals)}}, nil
}

// GroupKey derives the grouping value from a row inside the enclave.
type GroupKey = exec.GroupBy

// GroupAggregate runs grouped aggregation (hash bucketing, §4.2),
// returning one row [group, aggregates...] per group. It runs the plan
// Collect(GroupBy(Filter(Scan|IndexScan))).
func (db *DB) GroupAggregate(name string, pred table.Pred, groupBy GroupKey, specs []AggregateSpec, key *KeyRange) (*Result, error) {
	return db.ExecutePlan(&plan.Collect{Input: &plan.GroupBy{
		Input: &plan.Filter{Input: leaf(name, key), Cond: predExpr(pred)},
		Key:   groupBy,
		Specs: planSpecs(specs),
	}}, funcBinder{})
}

// groupAggregateTable runs grouped aggregation over t into an
// intermediate table on the execution context c.
func (db *DB) groupAggregateTable(c *execCtx, t *Table, pred table.Pred, groupBy GroupKey, specs []plan.AggSpec, names *plan.JoinNames, key *KeyRange) (*Table, error) {
	if pred == nil {
		pred = table.All
	}
	in, epred, release, err := db.inputFor(c, t, key, pred)
	if err != nil {
		return nil, err
	}
	defer release()
	pred = epred
	es, _, err := db.resolveSpecs(t.schema, specs, names)
	if err != nil {
		return nil, err
	}
	gopts := exec.GroupAggregateOptions{}
	if db.cfg.Padding.Enabled {
		gopts.PadGroups = db.cfg.Padding.PadGroups
	}
	var out *storage.Flat
	if ws, f, ok := db.parallelFor(c, in, t.schema.RecordSize()); ok {
		out, err = exec.ParallelGroupAggregate(db.enc, ws, f, pred, groupBy, es, gopts, db.tmpName("group"))
		if !errors.Is(err, exec.ErrSerialFallback) {
			if err != nil {
				return nil, err
			}
			return db.wrapTemp(out), nil
		}
	}
	out, err = exec.GroupAggregate(c.enc, in, pred, groupBy, es, gopts, db.tmpName("group"))
	if err != nil {
		return nil, err
	}
	return db.wrapTemp(out), nil
}

// JoinOptions configures a join query.
type JoinOptions struct {
	// FilterLeft/FilterRight pre-filter each side obliviously before the
	// join (composed as in the §4.1 example of chained operators).
	FilterLeft, FilterRight table.Pred
	// Force overrides the planner's join choice.
	Force *exec.JoinAlgorithm
}

// Join joins left and right on leftCol = rightCol. left is the primary
// (unique-key) side for the foreign-key sort-merge joins (§4.3). It runs
// the plan Collect(Join(side, side)), each side a Scan or, with a side
// filter, a Filter over one.
func (db *DB) Join(left, right, leftCol, rightCol string, opts JoinOptions) (*Result, error) {
	side := func(name string, pred table.Pred) plan.Node {
		if pred == nil {
			return &plan.Scan{Table: name}
		}
		return &plan.Filter{Input: &plan.Scan{Table: name}, Cond: pred}
	}
	return db.ExecutePlan(&plan.Collect{Input: &plan.Join{
		Left:      side(left, opts.FilterLeft),
		Right:     side(right, opts.FilterRight),
		LeftTable: left, RightTable: right,
		LeftCol: leftCol, RightCol: rightCol,
		Force: opts.Force,
	}}, funcBinder{})
}

// joinTable joins two catalog tables into an intermediate table on the
// execution context c.
func (db *DB) joinTable(c *execCtx, left, right, leftCol, rightCol string, opts JoinOptions) (*Table, error) {
	lt, err := c.lookup(left)
	if err != nil {
		return nil, err
	}
	rt, err := c.lookup(right)
	if err != nil {
		return nil, err
	}
	lcol := lt.schema.ColIndex(leftCol)
	rcol := rt.schema.ColIndex(rightCol)
	if lcol < 0 || rcol < 0 {
		return nil, fmt.Errorf("core: join columns %q/%q not found", leftCol, rightCol)
	}

	lTab, rTab := lt, rt
	if opts.FilterLeft != nil {
		if lTab, err = db.selectTable(c, lt, opts.FilterLeft, nil, nil); err != nil {
			return nil, err
		}
	}
	if opts.FilterRight != nil {
		if rTab, err = db.selectTable(c, rt, opts.FilterRight, nil, nil); err != nil {
			return nil, err
		}
	}
	lin, _, lrel, err := db.inputFor(c, lTab, nil, nil)
	if err != nil {
		return nil, err
	}
	defer lrel()
	rin, _, rrel, err := db.inputFor(c, rTab, nil, nil)
	if err != nil {
		return nil, err
	}
	defer rrel()

	outSchema, err := exec.JoinedSchema(lTab.schema, rTab.schema)
	if err != nil {
		return nil, err
	}
	var alg exec.JoinAlgorithm
	if opts.Force != nil {
		alg = *opts.Force
	} else {
		alg = planner.ChooseJoin(db.enc, planner.JoinSizes{
			T1Blocks:      lin.Blocks(),
			T2Blocks:      rin.Blocks(),
			T1Rows:        exec.RowSlots(lin),
			T2Rows:        exec.RowSlots(rin),
			BuildRecSize:  lTab.schema.RecordSize(),
			SortBlockSize: 9 + max(lTab.schema.RecordSize(), rTab.schema.RecordSize()),
		})
	}
	db.setLastJoin(alg)
	db.pickJoin(alg.String())
	name := db.tmpName("join")
	var out *storage.Flat
	if ws, rf, ok := db.parallelFor(c, rin, rTab.schema.RecordSize()); ok && alg == exec.JoinHash {
		if lf, lok := exec.AsFlat(lin); lok {
			out, err = exec.ParallelHashJoin(db.enc, ws, lf, rf, lcol, rcol, outSchema, name)
			if errors.Is(err, exec.ErrSerialFallback) {
				out, err = nil, nil
			}
		}
	}
	if out == nil && err == nil {
		out, err = exec.Join(c.enc, lin, rin, lcol, rcol, alg, exec.JoinOptions{OutSchema: outSchema}, name)
	}
	if err != nil {
		return nil, err
	}
	return db.wrapTemp(out), nil
}

// collect decrypts a table's live rows into a Result on the execution
// context c. Read-slot contexts stream the
// rows through their own view (the table's scratch is not theirs to
// use); the row order and contents match Flat.Rows exactly.
func (db *DB) collect(c *execCtx, t *Table) (*Result, error) {
	if t.flat == nil {
		return nil, fmt.Errorf("core: cannot collect an index-only table; select from it instead")
	}
	var rows []table.Row
	var err error
	if c.serial {
		rows, err = t.flat.Rows()
	} else {
		rows = make([]table.Row, 0, t.flat.NumRows())
		err = exec.ForEachRow(c.input(t.flat), func(_ int, r table.Row, used bool) error {
			if used {
				rows = append(rows, r.Clone())
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	cols := make([]string, t.schema.NumColumns())
	for i, c := range t.schema.Columns() {
		cols[i] = c.Name
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

// wrapTemp registers an operator output as an anonymous intermediate
// table handle.
func (db *DB) wrapTemp(f *storage.Flat) *Table {
	return &Table{name: f.Name(), schema: f.Schema(), kind: KindFlat, flat: f, keyCol: -1}
}

// useIndexFor is the engine-side half of the planner's access-method
// decision: a keyed read routes through the index exactly when
// planner.ChooseAccess — a function of public sizes only — prices it
// below a full flat scan, so execution always matches the annotated
// plan. Index-only tables have no flat fallback and always use it.
func (db *DB) useIndexFor(t *Table, key *KeyRange) bool {
	if t.index == nil || key == nil {
		return false
	}
	return planner.ChooseAccess(db.metaFor(t), plan.KeyRange{Lo: key.Lo, Hi: key.Hi}).UseIndex
}

// inputFor builds the operator input for a table, routing through the
// access method the planner prices cheaper (§3, §5):
//
//   - key range + index, when the index wins: oblivious index range scan
//     materialized into an intermediate table (leaking the scanned
//     segment's size, §4.1).
//   - flat representation: read directly; a key range the planner chose
//     NOT to serve through the index folds into the returned predicate
//     so the full scan still restricts correctly.
//   - index only, full scan: the ORAM bucket array scanned linearly as a
//     flat table (§3.2), at less than the full ORAM protocol's cost.
//
// It returns the effective predicate callers must use in place of the
// one passed in. release frees any intermediate resources.
//
// Index access from a read-slot context serializes behind the table's
// idxMu: Ring ORAM mutates its stash and position map even on reads, so
// two slots may not touch one index concurrently (different tables'
// indexes may — each lives on its own child enclave with its own
// sealer). Exclusive-side statements skip the lock: the database write
// lock already excludes every read slot.
func (db *DB) inputFor(c *execCtx, t *Table, key *KeyRange, pred table.Pred) (exec.Input, table.Pred, func(), error) {
	noop := func() {}
	if db.useIndexFor(t, key) {
		rows := make([]table.Row, 0, 64)
		if !c.serial {
			t.idxMu.Lock()
		}
		_, err := t.index.RangeScan(key.Lo, key.Hi, func(_ uint32, r table.Row) error {
			rows = append(rows, r.Clone())
			return nil
		})
		if !c.serial {
			t.idxMu.Unlock()
		}
		if err != nil {
			return nil, pred, noop, err
		}
		tmp, err := db.materialize(c, t.schema, rows, "range")
		if err != nil {
			return nil, pred, noop, err
		}
		return c.input(tmp), pred, noop, nil
	}
	if t.flat != nil {
		eff := pred
		if key != nil {
			if eff == nil {
				eff = table.All
			}
			eff = combinePred(t, eff, key)
		}
		return c.input(t.flat), eff, noop, nil
	}
	// Index-only full scan (an unkeyed read; keyed ones use the index).
	rows := make([]table.Row, 0, t.index.NumRows())
	if !c.serial {
		t.idxMu.Lock()
	}
	err := t.index.ScanRaw(func(_ uint32, r table.Row) error {
		rows = append(rows, r.Clone())
		return nil
	})
	if !c.serial {
		t.idxMu.Unlock()
	}
	if err != nil {
		return nil, pred, noop, err
	}
	tmp, err := db.materialize(c, t.schema, rows, "rawscan")
	if err != nil {
		return nil, pred, noop, err
	}
	return c.input(tmp), pred, noop, nil
}

// materialize writes rows into a fresh flat intermediate table at the
// engine's configured geometry, sealing one packed block at a time. The
// table lives on the context's enclave: its sealer and tracer are the
// statement's own.
func (db *DB) materialize(c *execCtx, s *table.Schema, rows []table.Row, op string) (*storage.Flat, error) {
	tmp, err := storage.NewFlatGeom(c.enc, db.tmpName(op), s, max(1, len(rows)), db.rowsPerBlockFor(s))
	if err != nil {
		return nil, err
	}
	w := tmp.NewBlockWriter()
	for _, r := range rows {
		if err := s.ValidateRow(r); err != nil {
			return nil, err
		}
		if err := w.Append(r, true); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	tmp.BumpRows(len(rows))
	return tmp, nil
}
