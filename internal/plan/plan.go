// Package plan defines ObliDB's physical plan IR: the typed operator
// tree a SQL statement compiles into before execution. A plan is pure
// statement *shape* — table names, expression structure, literal-derived
// key ranges, forced algorithms, and the public LIMIT size — and never
// contains a bound parameter value, so one compiled plan serves every
// execution of a statement shape and the shape-keyed plan cache can
// store compiled plans without its hit pattern depending on private
// data.
//
// The package sits below both the SQL frontend and the engine:
// internal/sql compiles statements into plans (the engine's
// programmatic reads build the same trees directly), internal/planner
// annotates them with algorithm and parallelism choices derived from
// public sizes only (the Catalog interface exposes exactly that
// metadata), and internal/core interprets them by wrapping the existing
// oblivious operators. Expressions stay opaque here (the Expr alias):
// the interpreter evaluates them through a Binder supplied with the
// plan, which is where this execution's argument values live — inside
// the enclave, invisible to planning.
package plan

import (
	"fmt"
	"math"

	"oblidb/internal/exec"
	"oblidb/internal/table"
)

// Expr is an opaque statement-shape expression (the sql package's AST).
// Plans store expressions unbound; a Binder lowers them at execution
// time with that execution's arguments.
type Expr = any

// KeyRange is an inclusive range on a table's indexed column, extracted
// from literal comparisons in a WHERE clause. Placeholders never feed a
// key range — their values are private — so a range in a plan is part
// of the statement shape.
type KeyRange struct {
	Lo, Hi int64
}

// FullRange spans every key.
func FullRange() KeyRange { return KeyRange{Lo: math.MinInt64, Hi: math.MaxInt64} }

// Node is one operator of a physical plan tree.
type Node interface{ node() }

// Scan reads a whole table: the leaf every full-scan pipeline starts
// from. Operators above it always touch all Blocks of the table,
// whatever the data.
type Scan struct {
	Table string
	Choice
}

// IndexScan reads the rows of Table whose indexed column falls in
// Range, through the oblivious B+ tree. Choosing it (over Scan) leaks
// the scanned segment's size — §4.1's conceded index leakage.
type IndexScan struct {
	Table  string
	KeyCol string
	Range  KeyRange
	// IndexCost and FlatCost are the estimated untrusted block accesses
	// of serving this ranged read through the index vs. a full flat scan;
	// Choice.Algorithm records which method the planner picked. Both are
	// functions of public sizes only.
	IndexCost, FlatCost int64
	Choice
}

// Filter materializes the rows of Input matching Cond into an
// intermediate table using one of the oblivious SELECT algorithms. A
// nil Cond selects everything (still one full oblivious pass — the
// engine never hands out raw table handles). CondSQL is the rendered
// condition for EXPLAIN.
type Filter struct {
	Input   Node
	Cond    Expr
	CondSQL string
	Force   *exec.SelectAlgorithm
	Choice
}

// ProjItem is one output column of a Project node: either a positional
// reference into the input's columns (Col >= 0, used above GroupBy
// whose output layout is [group, aggregates...]) or an expression
// evaluated per row (Col < 0).
type ProjItem struct {
	Col  int
	E    Expr
	SQL  string
	Name string
}

// Project maps each collected row through its items inside the enclave.
// It is always the topmost node under Collect: projection is a
// trace-neutral in-enclave computation applied at materialization.
type Project struct {
	Input Node
	Items []ProjItem
}

// Join joins its two sides on LeftCol = RightCol. The sides are Scan or
// Filter(Scan) nodes; side filters are fused into the join's oblivious
// pre-filter passes.
type Join struct {
	Left, Right           Node
	LeftTable, RightTable string
	LeftCol, RightCol     string
	Force                 *exec.JoinAlgorithm
	Choice
}

// AggSpec is one aggregate output of an Aggregate or GroupBy node.
type AggSpec struct {
	Kind   exec.AggKind
	Column string // empty for COUNT(*)
	Name   string // output column name
}

// Aggregate computes scalar aggregates over Input in one fused pass:
// when Input is a Filter over a leaf, the predicate folds into the scan
// and no intermediate table exists.
type Aggregate struct {
	Input Node
	Specs []AggSpec
}

// GroupBy computes grouped aggregates, emitting one [group, aggs...]
// row per group in sorted group order. KeySQL renders the grouping
// expression for EXPLAIN.
type GroupBy struct {
	Input  Node
	Key    Expr
	KeySQL string
	Specs  []AggSpec
	Choice
}

// Sort materializes Input into a power-of-two padded table ordered by
// Key (dummies last) with a bitonic network. A nil Key sorts by the
// used flag alone — the dummy-last compaction a bare LIMIT needs. The
// filter of a Filter-over-leaf input fuses into Sort's copy pass, which
// skips the planner's stats scan entirely: the trace depends only on
// the input capacity, never on how many rows match.
type Sort struct {
	Input  Node
	Key    Expr // *sql.ColumnRef; nil = compaction only
	KeySQL string
	Desc   bool
	Choice
}

// Limit copies exactly N blocks of Input into an N-capacity output —
// fixed-size padded output, so the host never learns how many rows
// matched. N is always a statement literal (the parser rejects
// placeholder limits), hence public shape.
type Limit struct {
	Input Node
	N     int
}

// Collect decrypts the final table into a client result. It is the root
// of every row-returning plan.
type Collect struct {
	Input Node
}

// SetExpr is one SET col = expr assignment of an Update plan.
type SetExpr struct {
	Column string
	Value  Expr
	SQL    string
}

// Insert appends rows (each a vector of constant expressions, possibly
// placeholders) to a table.
type Insert struct {
	Table string
	Rows  [][]Expr
}

// Update rewrites the rows matching Cond, optionally narrowed by the
// key range extracted from the literal conjuncts of the WHERE clause.
type Update struct {
	Table   string
	Sets    []SetExpr
	Cond    Expr
	CondSQL string
	Key     *KeyRange
	KeyCol  string
}

// Delete removes the rows matching Cond, with the same key-range
// narrowing as Update.
type Delete struct {
	Table   string
	Cond    Expr
	CondSQL string
	Key     *KeyRange
	KeyCol  string
}

// Tx is a transaction-control statement. It compiles like any other
// statement so EXPLAIN renders it and the plan cache keys it, but it
// executes in the session layer (transaction state is per-connection,
// not per-engine).
type Tx struct {
	Kind TxKind
}

// TxKind selects which transaction-control statement a Tx node is.
type TxKind uint8

const (
	// TxBegin opens a transaction.
	TxBegin TxKind = iota
	// TxCommit atomically applies the buffered writes.
	TxCommit
	// TxRollback discards them.
	TxRollback
)

// String renders the kind as its SQL keyword.
func (k TxKind) String() string {
	switch k {
	case TxBegin:
		return "BEGIN"
	case TxCommit:
		return "COMMIT"
	case TxRollback:
		return "ROLLBACK"
	}
	return fmt.Sprintf("TxKind(%d)", uint8(k))
}

func (*Scan) node()      {}
func (*IndexScan) node() {}
func (*Filter) node()    {}
func (*Project) node()   {}
func (*Join) node()      {}
func (*Aggregate) node() {}
func (*GroupBy) node()   {}
func (*Sort) node()      {}
func (*Limit) node()     {}
func (*Collect) node()   {}
func (*Insert) node()    {}
func (*Update) node()    {}
func (*Delete) node()    {}
func (*Tx) node()        {}

// Choice records the optimizer pass's per-node decisions and padded
// cost estimates — exactly the information the paper concedes a query
// plan leaks (§2.3). For selections the final algorithm additionally
// consults the runtime stats scan (|R| is known only then); the
// annotation is the choice under the padded estimate |R| = |T|.
type Choice struct {
	// Algorithm names the chosen (or estimated) operator variant.
	Algorithm string
	// Estimated marks Algorithm as the padded-estimate pick, refined by
	// the runtime stats scan.
	Estimated bool
	// Parallelism is the partition count the planner would use (>= 1).
	Parallelism int
	// InBlocks and OutBlocks are the public input and (padded) output
	// sizes in sealed blocks.
	InBlocks, OutBlocks int
	// RowsPerBlock is the packing factor R of the node's input: how many
	// records each sealed block holds. Part of the public geometry the
	// cost is expressed in.
	RowsPerBlock int
	// Cost is the estimated number of untrusted block accesses under
	// the padded output estimate.
	Cost int64
}

// choice lets the annotator reach the embedded Choice of any node that
// carries one.
func (c *Choice) choice() *Choice { return c }

// Annotatable is implemented by every node embedding a Choice.
type Annotatable interface{ choice() *Choice }

// TableMeta is the public metadata of one table: sizes the adversary
// already observes plus index configuration. It is everything the
// optimizer is allowed to consult.
type TableMeta struct {
	// Blocks is the table's capacity in sealed blocks (the size |T| the
	// host sees).
	Blocks int
	// Rows is the row-slot capacity, Blocks × RowsPerBlock.
	Rows int
	// RowsPerBlock is the packing factor R (1 for index-only tables,
	// whose block unit is the record).
	RowsPerBlock int
	// RecordSize is the sealed record size in bytes.
	RecordSize int
	// KeyColumn names the indexed column ("" when the table has no
	// index).
	KeyColumn string
	// NumColumns is the schema width (needed for join layouts).
	NumColumns int
	// HasFlat reports whether the table has a flat representation a full
	// scan can run against (false for index-only tables).
	HasFlat bool
	// HasIndex reports whether the table has an ORAM-backed index the
	// planner may route ranged reads through.
	HasIndex bool
	// IndexHeight is the B+ tree's level count — public, a function of
	// the (leaked) row count.
	IndexHeight int
	// IndexAccessesPerOp is the untrusted block accesses one logical ORAM
	// operation costs — the public O(log N) factor of the indexed method.
	IndexAccessesPerOp int
	// IndexRowsPerBlock is the packing factor of the index's record
	// blocks (how many rows one ORAM record block holds).
	IndexRowsPerBlock int
}

// Catalog exposes public table metadata to the compiler and optimizer.
type Catalog interface {
	TableMeta(name string) (TableMeta, bool)
}

// JoinNames carries the naming context expressions need above a Join:
// the source table names and the first right-side column index of the
// joined schema (right-side duplicates carry the "r_" prefix).
type JoinNames struct {
	Left, Right string
	RightStart  int
}

// Binder supplies the execution-time expression services a plan needs.
// The SQL layer implements it over its AST, and the engine's
// programmatic reads over Go callbacks; this execution's argument
// values live only inside the Binder, so nothing the interpreter or planner touches
// can depend on them. Each compiling method lowers its expressions once
// per execution and returns resolution errors (unknown column, unbound
// parameter, unknown function) at once: they depend only on shape and
// schema. The compiled callbacks defer runtime evaluation errors —
// operators must run their full padded access sequence regardless — so
// the interpreter checks Err after operators complete.
type Binder interface {
	// Pred compiles a filter condition into a predicate over rows of
	// schema s. A nil cond yields the all-rows predicate. names carries
	// join naming context (nil outside joins).
	Pred(cond Expr, s *table.Schema, names *JoinNames) (table.Pred, error)
	// GroupKey compiles a grouping expression into a per-row key.
	GroupKey(e Expr, s *table.Schema, names *JoinNames) (exec.GroupBy, error)
	// Column resolves a column-reference expression to its index in s.
	Column(e Expr, s *table.Schema, names *JoinNames) (int, error)
	// Project compiles projection items against rows of s, the collected
	// result's schema, returning the per-row mapper. names carries the
	// join naming context of the collected rows (nil outside joins), so
	// qualified references resolve against the joined layout.
	Project(items []ProjItem, s *table.Schema, names *JoinNames) (func(table.Row) (table.Row, error), error)
	// RowValues evaluates one INSERT row's constant expressions with
	// this execution's arguments bound.
	RowValues(exprs []Expr) (table.Row, error)
	// Updater compiles SET clauses into an in-place row updater over s.
	Updater(sets []SetExpr, s *table.Schema) (table.Updater, error)
	// Err reports the first deferred evaluation error captured by any
	// compiled callback, checked after operators complete.
	Err() error
}

// ReadOnly reports whether executing the plan cannot mutate engine
// state. Collect and Aggregate roots are pure reads: their subtrees are
// built exclusively from Scan/IndexScan/Filter/Join/GroupBy/Sort/Limit/
// Project nodes, none of which mutate. Insert, Update, Delete, and Tx
// roots are writes. The engine routes read-only plans to its shared
// (read-concurrent) lock side and everything else to the exclusive side.
func ReadOnly(n Node) bool {
	switch n.(type) {
	case *Collect, *Aggregate:
		return true
	default:
		return false
	}
}
