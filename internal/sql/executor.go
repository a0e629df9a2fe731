package sql

import (
	"fmt"
	"strings"
	"sync"

	"oblidb/internal/core"
	"oblidb/internal/plan"
	"oblidb/internal/table"
)

// planCacheLimit bounds the statement cache. When full, the cache is
// cleared wholesale — a rare event for realistic workloads (which cycle
// through far fewer than 256 statement shapes), and simpler to reason
// about than LRU bookkeeping on the hot path.
const planCacheLimit = 256

// planEntry is one cached statement shape: the AST (immutable after
// parse, shared freely across goroutines), its parameter arity, and —
// once the statement has executed — its compiled physical plan.
// compiledEpoch records the catalog epoch the plan was compiled under;
// DDL bumps the executor's epoch, so stale plans recompile instead of
// referencing dropped or re-created tables.
type planEntry struct {
	stmt      Statement
	numParams int

	// Guarded by Executor.mu.
	compiled      plan.Node
	compiledEpoch uint64
}

// Executor runs SQL statements against an ObliDB engine. It keeps a
// plan cache keyed by statement *shape* — the placeholder-normalized
// String() rendering — so re-executions of a parameterized statement
// skip parsing AND plan compilation, and spelling variants (?, $1,
// extra whitespace) of one shape share an entry. Nothing about an
// argument value is in the key or the compiled plan; the cache cannot
// leak parameters by its hit pattern because hits depend only on
// statement text.
type Executor struct {
	db *core.DB

	mu           sync.Mutex
	plans        map[string]*planEntry // canonical shape → entry
	bySrc        map[string]string     // raw source text → canonical shape
	hits         uint64
	misses       uint64
	compiles     uint64 // plan compilations performed
	compileSkips uint64 // executions that reused a compiled plan
}

// New wraps a database in a SQL executor.
func New(db *core.DB) *Executor {
	return &Executor{
		db:    db,
		plans: make(map[string]*planEntry),
		bySrc: make(map[string]string),
	}
}

// DB returns the underlying engine.
func (x *Executor) DB() *core.DB { return x.db }

// Execute parses (or recalls from the plan cache) one statement and
// runs it with args bound to its placeholders. DDL and DML return a
// one-row result reporting the affected count. Like PrepareOneShot, it
// keeps a literal-only statement out of the shape cache.
func (x *Executor) Execute(src string, args ...table.Value) (*core.Result, error) {
	entry, err := x.plan(src, false)
	if err != nil {
		return nil, err
	}
	return x.execEntry(entry, args)
}

// plan returns the cached entry for src, parsing and caching on miss.
// The returned statement is shared: callers must treat it as immutable.
//
// Zero-placeholder statements are cached only when cacheLiterals is set
// (the Prepare path): a one-shot literal statement — a bulk load of
// distinct INSERTs, say — is by construction never re-executed by
// shape, and letting such statements fill the cache would evict the
// parameterized shapes that plan-once/execute-many exists for.
func (x *Executor) plan(src string, cacheLiterals bool) (*planEntry, error) {
	x.mu.Lock()
	if key, ok := x.bySrc[src]; ok {
		if entry, ok := x.plans[key]; ok {
			x.hits++
			x.mu.Unlock()
			return entry, nil
		}
	}
	x.mu.Unlock()

	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	entry := &planEntry{stmt: stmt, numParams: NumParams(stmt)}
	key := stmt.(fmt.Stringer).String()

	x.mu.Lock()
	x.misses++
	if existing, ok := x.plans[key]; ok {
		// Another spelling (or one-shot re-send) of a cached shape:
		// share its parse and compiled plan.
		entry = existing
	} else if entry.numParams == 0 && !cacheLiterals {
		x.mu.Unlock()
		return entry, nil
	} else {
		x.storeLocked(key, entry)
	}
	if len(x.bySrc) < 4*planCacheLimit {
		x.bySrc[src] = key
	}
	x.mu.Unlock()
	return entry, nil
}

// entryFor finds the cache entry sharing stmt's shape, so EXPLAIN shows
// (and shares) the compiled plan executions of that shape replay. A
// shape not yet cached gets an entry only if it has placeholders: like
// a one-shot execution, a literal EXPLAIN gets a transient entry, so a
// stream of distinct literal EXPLAINs cannot evict the
// plan-once/execute-many shapes.
func (x *Executor) entryFor(stmt Statement) *planEntry {
	key := stmt.(fmt.Stringer).String()
	x.mu.Lock()
	defer x.mu.Unlock()
	if entry, ok := x.plans[key]; ok {
		return entry
	}
	entry := &planEntry{stmt: stmt, numParams: NumParams(stmt)}
	if entry.numParams > 0 {
		x.storeLocked(key, entry)
	}
	return entry
}

// storeLocked caches entry under its shape key, clearing the cache
// wholesale when it is full (see planCacheLimit). x.mu must be held.
func (x *Executor) storeLocked(key string, entry *planEntry) {
	if len(x.plans) >= planCacheLimit {
		x.plans = make(map[string]*planEntry)
		x.bySrc = make(map[string]string)
	}
	x.plans[key] = entry
}

// Prepared is a cached statement shape ready for repeated execution:
// parse and compiled plan are shared across every execution of the
// shape, only argument binding is per-call.
type Prepared struct {
	x     *Executor
	entry *planEntry
}

// Prepare parses (or recalls) a statement shape for repeated execution.
func (x *Executor) Prepare(src string) (*Prepared, error) {
	entry, err := x.plan(src, true)
	if err != nil {
		return nil, err
	}
	return &Prepared{x: x, entry: entry}, nil
}

// PrepareOneShot is Prepare for single executions: literal-only
// statements skip the shape cache so one-shot statements cannot evict
// the plan-once/execute-many shapes.
func (x *Executor) PrepareOneShot(src string) (*Prepared, error) {
	entry, err := x.plan(src, false)
	if err != nil {
		return nil, err
	}
	return &Prepared{x: x, entry: entry}, nil
}

// Stmt returns the prepared statement's AST (immutable; callers must
// not modify it).
func (p *Prepared) Stmt() Statement { return p.entry.stmt }

// NumParams reports how many arguments Exec requires.
func (p *Prepared) NumParams() int { return p.entry.numParams }

// Exec runs the prepared statement with args bound to its placeholders.
func (p *Prepared) Exec(args []table.Value) (*core.Result, error) {
	return p.x.execEntry(p.entry, args)
}

// PlanCacheStats reports the cache's size and hit/miss counters.
func (x *Executor) PlanCacheStats() (entries int, hits, misses uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.plans), x.hits, x.misses
}

// CacheStats is the executor's full self-report: parse-cache size and
// hit/miss counters plus compiled-plan counters. CompileSkips counts
// executions that replayed a cached compiled plan without re-planning —
// the number the cache-hit fast path is measured by.
type CacheStats struct {
	Entries      int
	Hits, Misses uint64
	Compiles     uint64
	CompileSkips uint64
}

// CacheStats reports the executor's counters.
func (x *Executor) CacheStats() CacheStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return CacheStats{
		Entries: len(x.plans),
		Hits:    x.hits, Misses: x.misses,
		Compiles: x.compiles, CompileSkips: x.compileSkips,
	}
}

// execEntry checks the arity, then dispatches: DDL and EXPLAIN execute
// directly (they are catalog operations), everything else compiles into
// (or replays) the entry's physical plan and runs it through the
// engine's plan interpreter.
func (x *Executor) execEntry(entry *planEntry, args []table.Value) (*core.Result, error) {
	if err := checkArity(entry.numParams, len(args)); err != nil {
		return nil, err
	}
	switch s := entry.stmt.(type) {
	case *CreateTable:
		// DDL invalidates compiled plans via the engine's catalog epoch
		// (bumped inside CreateTable/DropTable, whichever surface issues
		// them).
		return x.createTable(s)
	case *DropTable:
		if err := x.db.DropTable(s.Name); err != nil {
			return nil, err
		}
		return core.AffectedResult(0), nil
	case *Explain:
		return x.explainStmt(s)
	}
	root, err := x.compiledPlan(entry)
	if err != nil {
		return nil, err
	}
	return x.db.ExecutePlan(root, newBinder(args))
}

// checkArity is the one binding check: the argument count must equal
// the statement's parameter count.
func checkArity(numParams, numArgs int) error {
	if numArgs != numParams {
		return fmt.Errorf("sql: statement has %d parameter(s), got %d argument(s)", numParams, numArgs)
	}
	return nil
}

// compiledPlan returns the entry's compiled plan, compiling on first
// execution (or after DDL moved the engine's catalog epoch, voiding
// catalog-derived decisions like access paths and join splits) and
// replaying it afterwards.
func (x *Executor) compiledPlan(entry *planEntry) (plan.Node, error) {
	epoch := x.db.CatalogEpoch()
	x.mu.Lock()
	if entry.compiled != nil && entry.compiledEpoch == epoch {
		x.compileSkips++
		root := entry.compiled
		x.mu.Unlock()
		return root, nil
	}
	x.mu.Unlock()

	root, err := x.compile(entry.stmt)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	x.compiles++
	entry.compiled, entry.compiledEpoch = root, epoch
	x.mu.Unlock()
	return root, nil
}

// explainStmt renders the inner statement's physical plan. A
// parameterized (or already-cached) shape shares its entry with later
// executions, so EXPLAIN shows exactly the plan the cache serves;
// literal one-shot shapes stay out of the cache, like every other
// one-shot. Annotation and rendering run together under the engine
// mutex (ExplainPlan) because the plan is shared.
func (x *Executor) explainStmt(s *Explain) (*core.Result, error) {
	entry := x.entryFor(s.Stmt)
	root, err := x.compiledPlan(entry)
	if err != nil {
		return nil, err
	}
	res := &core.Result{Cols: []string{"plan"}}
	for _, line := range x.db.ExplainPlan(root) {
		res.Rows = append(res.Rows, table.Row{table.Str(line)})
	}
	return res, nil
}

func (x *Executor) createTable(s *CreateTable) (*core.Result, error) {
	schema, err := table.NewSchema(s.Columns...)
	if err != nil {
		return nil, err
	}
	kind := s.Kind
	if s.IndexCol != "" && kind == core.KindFlat {
		if s.UsingIndex {
			kind = core.KindIndexed
		} else {
			kind = core.KindBoth
		}
	}
	_, err = x.db.CreateTable(s.Name, schema, core.TableOptions{
		Kind:             kind,
		KeyColumn:        s.IndexCol,
		Capacity:         s.Capacity,
		ObliviousInserts: s.ObliviousI,
	})
	if err != nil {
		return nil, err
	}
	return core.AffectedResult(0), nil
}

func resolveJoinCols(s *Select, lt, rt *core.Table) (string, string, error) {
	l, r := s.Join.LeftCol, s.Join.RightCol
	// Allow either order of qualification: ON a.x = b.y or ON b.y = a.x.
	inLeft := func(c *ColumnRef) bool {
		if c.Table != "" {
			return strings.EqualFold(c.Table, s.From)
		}
		return lt.Schema().ColIndex(c.Column) >= 0
	}
	if inLeft(l) {
		return l.Column, r.Column, nil
	}
	if inLeft(r) {
		return r.Column, l.Column, nil
	}
	return "", "", fmt.Errorf("sql: cannot resolve join columns %q/%q", l.Column, r.Column)
}

func andExprs(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// exprEqual compares expressions structurally.
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *Literal:
		y, ok := b.(*Literal)
		return ok && x.Val.Equal(y.Val)
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && strings.EqualFold(x.Column, y.Column) && strings.EqualFold(x.Table, y.Table)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Placeholder:
		y, ok := b.(*Placeholder)
		return ok && x.Index == y.Index
	}
	return false
}
