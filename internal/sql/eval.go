package sql

import (
	"fmt"
	"strings"

	"oblidb/internal/core"
	"oblidb/internal/table"
)

// resolver lowers expressions against one row layout. For joins the
// right table's duplicate-named columns carry the "r_" prefix the
// engine's JoinedSchema assigns.
type resolver struct {
	// schema is the row layout; nil for constant contexts (INSERT
	// values), where every column reference is a resolution error.
	schema *table.Schema
	// rightTable and leftTable are the join's source names ("" outside
	// joins); rightStart is the first right-side column index (-1
	// outside joins).
	leftTable, rightTable string
	rightStart            int
	// args are the bound parameter values ($1 = args[0]). They live
	// only here, inside the enclave's evaluator: placeholders are never
	// substituted into the AST, so argument values cannot reach the
	// planner, the key-range extraction, or the rendered statement.
	args []table.Value
}

func (r *resolver) resolve(c *ColumnRef) (int, error) {
	if r.schema == nil {
		return -1, fmt.Errorf("sql: no column %q", c.Column)
	}
	if c.Table != "" && r.rightStart >= 0 {
		// Qualified reference inside a join: search the matching side.
		if strings.EqualFold(c.Table, r.rightTable) {
			if i := r.schema.ColIndex("r_" + c.Column); i >= 0 {
				return i, nil
			}
			if i := r.schema.ColIndex(c.Column); i >= r.rightStart {
				return i, nil
			}
			return -1, fmt.Errorf("sql: no column %q in table %q", c.Column, c.Table)
		}
		if strings.EqualFold(c.Table, r.leftTable) {
			if i := r.schema.ColIndex(c.Column); i >= 0 && i < r.rightStart {
				return i, nil
			}
			return -1, fmt.Errorf("sql: no column %q in table %q", c.Column, c.Table)
		}
		return -1, fmt.Errorf("sql: unknown table qualifier %q", c.Table)
	}
	if i := r.schema.ColIndex(c.Column); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("sql: no column %q", c.Column)
}

// evalFn is a lowered expression: it evaluates against one row inside
// the enclave with every name already resolved.
type evalFn func(table.Row) (table.Value, error)

// lower compiles e against the resolver's row layout once per
// execution: column references become fixed row indices, placeholders
// and literals become captured values, and a comparison between a
// column and a constant becomes one direct Compare. Resolution errors —
// unknown column or qualifier, unbound $n, unknown function or
// operator, wrong function arity — depend only on the statement's shape
// and the schema, so they return here, before any row is evaluated.
// What stays in the closures are the runtime errors (division by zero,
// comparing values of different kinds), which depend on row data.
func (r *resolver) lower(e Expr) (evalFn, error) {
	switch x := e.(type) {
	case *Literal, *Placeholder:
		v, err := r.constant(x)
		if err != nil {
			return nil, err
		}
		return func(table.Row) (table.Value, error) { return v, nil }, nil
	case *ColumnRef:
		i, err := r.resolve(x)
		if err != nil {
			return nil, err
		}
		return func(row table.Row) (table.Value, error) { return row[i], nil }, nil
	case *Unary:
		return r.lowerUnary(x)
	case *Binary:
		return r.lowerBinary(x)
	case *Call:
		return r.lowerCall(x)
	}
	return nil, fmt.Errorf("sql: cannot evaluate %T", e)
}

// constant returns the value of a literal or bound placeholder.
func (r *resolver) constant(e Expr) (table.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Placeholder:
		if x.Index < 1 || x.Index > len(r.args) {
			return table.Value{}, fmt.Errorf("sql: parameter $%d not bound (%d argument(s) given)", x.Index, len(r.args))
		}
		return r.args[x.Index-1], nil
	}
	return table.Value{}, fmt.Errorf("sql: %T is not a constant", e)
}

// isConstant reports whether e lowers to a captured value.
func isConstant(e Expr) bool {
	switch e.(type) {
	case *Literal, *Placeholder:
		return true
	}
	return false
}

func (r *resolver) lowerUnary(x *Unary) (evalFn, error) {
	f, err := r.lower(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "NOT":
		return func(row table.Row) (table.Value, error) {
			v, err := f(row)
			if err != nil {
				return table.Value{}, err
			}
			return table.Bool(!truthy(v)), nil
		}, nil
	case "-":
		return func(row table.Row) (table.Value, error) {
			v, err := f(row)
			if err != nil {
				return table.Value{}, err
			}
			switch v.Kind {
			case table.KindInt:
				return table.Int(-v.AsInt()), nil
			case table.KindFloat:
				return table.Float(-v.AsFloat()), nil
			}
			return table.Value{}, fmt.Errorf("sql: cannot negate %s", v.Kind)
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
}

func truthy(v table.Value) bool {
	switch v.Kind {
	case table.KindBool, table.KindInt:
		return v.AsInt() != 0
	case table.KindFloat:
		return v.AsFloat() != 0
	case table.KindString:
		return v.AsString() != ""
	}
	return false
}

// comparisons maps each comparison operator to its test on the result
// of table.Compare.
var comparisons = map[string]func(c int) bool{
	"=":  func(c int) bool { return c == 0 },
	"<>": func(c int) bool { return c != 0 },
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
}

func (r *resolver) lowerBinary(x *Binary) (evalFn, error) {
	test, isCmp := comparisons[x.Op]
	if isCmp {
		if fn, ok, err := r.lowerColumnCmp(x, test); ok {
			return fn, err
		}
	}
	l, err := r.lower(x.L)
	if err != nil {
		return nil, err
	}
	rr, err := r.lower(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND", "OR":
		// AND stops at a false left side, OR at a true one.
		stop := x.Op == "OR"
		return func(row table.Row) (table.Value, error) {
			lv, err := l(row)
			if err != nil {
				return table.Value{}, err
			}
			if truthy(lv) == stop {
				return table.Bool(stop), nil
			}
			rv, err := rr(row)
			if err != nil {
				return table.Value{}, err
			}
			return table.Bool(truthy(rv)), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(row table.Row) (table.Value, error) {
			lv, err := l(row)
			if err != nil {
				return table.Value{}, err
			}
			rv, err := rr(row)
			if err != nil {
				return table.Value{}, err
			}
			return arith(op, lv, rv)
		}, nil
	}
	if !isCmp {
		return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
	}
	return func(row table.Row) (table.Value, error) {
		lv, err := l(row)
		if err != nil {
			return table.Value{}, err
		}
		rv, err := rr(row)
		if err != nil {
			return table.Value{}, err
		}
		c, err := table.Compare(lv, rv)
		if err != nil {
			return table.Value{}, err
		}
		return table.Bool(test(c)), nil
	}, nil
}

// lowerColumnCmp is the fast path for a column compared with a literal
// or placeholder (either orientation): one indexed load and one Compare
// per row. ok is false when x has another shape.
func (r *resolver) lowerColumnCmp(x *Binary, test func(int) bool) (fn evalFn, ok bool, err error) {
	col, isCol := x.L.(*ColumnRef)
	other, colLeft := x.R, true
	if !isCol || !isConstant(other) {
		col, isCol = x.R.(*ColumnRef)
		other, colLeft = x.L, false
		if !isCol || !isConstant(other) {
			return nil, false, nil
		}
	}
	i, err := r.resolve(col)
	if err != nil {
		return nil, true, err
	}
	v, err := r.constant(other)
	if err != nil {
		return nil, true, err
	}
	return func(row table.Row) (table.Value, error) {
		a, b := row[i], v
		if !colLeft {
			a, b = b, a
		}
		c, err := table.Compare(a, b)
		if err != nil {
			return table.Value{}, err
		}
		return table.Bool(test(c)), nil
	}, true, nil
}

func arith(op string, l, r table.Value) (table.Value, error) {
	if op == "+" && l.Kind == table.KindString && r.Kind == table.KindString {
		return table.Str(l.AsString() + r.AsString()), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return table.Value{}, fmt.Errorf("sql: %s needs numeric operands", op)
	}
	if l.Kind == table.KindInt && r.Kind == table.KindInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return table.Int(a + b), nil
		case "-":
			return table.Int(a - b), nil
		case "*":
			return table.Int(a * b), nil
		case "/":
			if b == 0 {
				return table.Value{}, fmt.Errorf("sql: division by zero")
			}
			return table.Int(a / b), nil
		case "%":
			if b == 0 {
				return table.Value{}, fmt.Errorf("sql: modulo by zero")
			}
			return table.Int(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return table.Float(a + b), nil
	case "-":
		return table.Float(a - b), nil
	case "*":
		return table.Float(a * b), nil
	case "/":
		if b == 0 {
			return table.Value{}, fmt.Errorf("sql: division by zero")
		}
		return table.Float(a / b), nil
	}
	return table.Value{}, fmt.Errorf("sql: %s not defined on floats", op)
}

// lowerArgs lowers a call's arguments after checking their count.
func (r *resolver) lowerArgs(x *Call, want int, usage string) ([]evalFn, error) {
	if len(x.Args) != want {
		return nil, fmt.Errorf("sql: %s", usage)
	}
	fns := make([]evalFn, want)
	for i, a := range x.Args {
		f, err := r.lower(a)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return fns, nil
}

func (r *resolver) lowerCall(x *Call) (evalFn, error) {
	switch x.Name {
	case "SUBSTR", "SUBSTRING":
		args, err := r.lowerArgs(x, 3, "SUBSTR takes (string, start, length)")
		if err != nil {
			return nil, err
		}
		str, start, length := args[0], args[1], args[2]
		return func(row table.Row) (table.Value, error) {
			s, err := str(row)
			if err != nil {
				return table.Value{}, err
			}
			st, err := start(row)
			if err != nil {
				return table.Value{}, err
			}
			n, err := length(row)
			if err != nil {
				return table.Value{}, err
			}
			if s.Kind != table.KindString {
				return table.Value{}, fmt.Errorf("sql: SUBSTR over %s", s.Kind)
			}
			return table.Str(substr(s.AsString(), st.AsInt(), n.AsInt())), nil
		}, nil
	case "LENGTH":
		args, err := r.lowerArgs(x, 1, "LENGTH takes one argument")
		if err != nil {
			return nil, err
		}
		str := args[0]
		return func(row table.Row) (table.Value, error) {
			s, err := str(row)
			if err != nil {
				return table.Value{}, err
			}
			return table.Int(int64(len(s.AsString()))), nil
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown function %q", x.Name)
}

// substr is SQL's 1-based SUBSTR, clamped to the string.
func substr(s string, start, length int64) string {
	from := min(max(int(start)-1, 0), len(s))
	to := min(from+int(length), len(s))
	return s[from:max(to, from)]
}

// constEval evaluates an expression with no column references, binding
// placeholders from args, through the same lowering as row expressions.
func constEval(e Expr, args []table.Value) (table.Value, error) {
	f, err := (&resolver{args: args}).lower(e)
	if err != nil {
		return table.Value{}, err
	}
	return f(nil)
}

// keyRange extracts an inclusive range on the indexed column from the
// conjunctive prefix of a WHERE clause — how the executor decides a query
// can "begin inside an ORAM at a point specified by an index lookup"
// (§4.1). Only top-level ANDs are examined; anything else stays in the
// residual predicate (which is always the full expression).
func keyRange(e Expr, keyCol string) *core.KeyRange {
	conjuncts := flattenAnd(e)
	var lo, hi *int64
	set := func(p **int64, v int64, pick func(a, b int64) int64) {
		if *p == nil {
			*p = &v
			return
		}
		nv := pick(**p, v)
		*p = &nv
	}
	maxI := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	minI := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if !ok {
			continue
		}
		col, lit, op, ok := normalizeCmp(b, keyCol)
		if !ok || col == nil {
			continue
		}
		switch op {
		case "=":
			set(&lo, lit, maxI)
			set(&hi, lit, minI)
		case ">":
			set(&lo, lit+1, maxI)
		case ">=":
			set(&lo, lit, maxI)
		case "<":
			set(&hi, lit-1, minI)
		case "<=":
			set(&hi, lit, minI)
		}
	}
	if lo == nil && hi == nil {
		return nil
	}
	r := &core.KeyRange{Lo: -1 << 63, Hi: 1<<63 - 1}
	if lo != nil {
		r.Lo = *lo
	}
	if hi != nil {
		r.Hi = *hi
	}
	return r
}

func flattenAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// normalizeCmp matches col OP intLiteral (either orientation) against the
// named key column.
func normalizeCmp(b *Binary, keyCol string) (*ColumnRef, int64, string, bool) {
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
	if _, ok := flip[b.Op]; !ok {
		return nil, 0, "", false
	}
	if cr, ok := b.L.(*ColumnRef); ok && strings.EqualFold(cr.Column, keyCol) {
		if lit, ok := b.R.(*Literal); ok && lit.Val.Kind == table.KindInt {
			return cr, lit.Val.AsInt(), b.Op, true
		}
	}
	if cr, ok := b.R.(*ColumnRef); ok && strings.EqualFold(cr.Column, keyCol) {
		if lit, ok := b.L.(*Literal); ok && lit.Val.Kind == table.KindInt {
			return cr, lit.Val.AsInt(), flip[b.Op], true
		}
	}
	return nil, 0, "", false
}

// columnsIn collects the unqualified tables a predicate references:
// whether every ColumnRef resolves within the given schema.
func exprOnlyUses(e Expr, s *table.Schema, tableName string) bool {
	ok := true
	var walk func(Expr)
	walk = func(e Expr) {
		if !ok || e == nil {
			return
		}
		switch x := e.(type) {
		case *ColumnRef:
			if x.Table != "" && !strings.EqualFold(x.Table, tableName) {
				ok = false
				return
			}
			if s.ColIndex(x.Column) < 0 {
				ok = false
			}
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.X)
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return ok
}
