package sql

import (
	"strings"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/table"
)

func bindTestDB(t *testing.T) (*core.DB, *Executor) {
	t.Helper()
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := New(db)
	for _, stmt := range []string{
		"CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(16))",
		"INSERT INTO t VALUES (1, 10, 'alice'), (2, 20, 'bob'), (3, 20, 'carol')",
	} {
		if _, err := x.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db, x
}

func TestPlaceholderParsing(t *testing.T) {
	cases := []struct {
		src       string
		numParams int
		rendered  string // "" = don't check
	}{
		{"SELECT * FROM t WHERE id = ?", 1, "SELECT * FROM t WHERE (id = $1)"},
		{"SELECT * FROM t WHERE id = $1", 1, "SELECT * FROM t WHERE (id = $1)"},
		{"SELECT * FROM t WHERE id = ? AND v = ?", 2, "SELECT * FROM t WHERE ((id = $1) AND (v = $2))"},
		// SQLite numbering: ? takes one past the largest index so far.
		{"SELECT * FROM t WHERE id = $2 AND v = ?", 3, "SELECT * FROM t WHERE ((id = $2) AND (v = $3))"},
		{"SELECT * FROM t WHERE id = $9", 9, ""},
		{"INSERT INTO t VALUES (?, ?, ?)", 3, "INSERT INTO t VALUES ($1, $2, $3)"},
		{"UPDATE t SET v = $1 WHERE id = $2", 2, ""},
		{"DELETE FROM t WHERE v = ?", 1, ""},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if n := NumParams(stmt); n != c.numParams {
			t.Errorf("NumParams(%q) = %d, want %d", c.src, n, c.numParams)
		}
		if c.rendered != "" {
			if got := stmt.(interface{ String() string }).String(); got != c.rendered {
				t.Errorf("String(%q) = %q, want %q", c.src, got, c.rendered)
			}
		}
	}
}

func TestPlaceholderParseErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM t WHERE id = $0",
		"SELECT * FROM t WHERE id = $",
		"SELECT * FROM t WHERE id = $99999999999999999999",
		"SELECT * FROM t WHERE id = $70000", // above maxParamIndex
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestExecuteArgsSelect(t *testing.T) {
	_, x := bindTestDB(t)
	res, err := x.Execute("SELECT name FROM t WHERE id = $1", table.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob" {
		t.Fatalf("got %v", res.Rows)
	}
	// Same shape, different argument, via the anonymous spelling.
	res, err = x.Execute("SELECT name FROM t WHERE id = ?", table.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "carol" {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestExecuteArgsInsertUpdateDelete(t *testing.T) {
	_, x := bindTestDB(t)
	res, err := x.Execute("INSERT INTO t VALUES ($1, $2, $3)",
		table.Int(4), table.Int(40), table.Str("dave"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("affected = %v", res.Rows[0][0])
	}
	if _, err := x.Execute("UPDATE t SET v = $1 WHERE name = $2",
		table.Int(44), table.Str("dave")); err != nil {
		t.Fatal(err)
	}
	out, err := x.Execute("SELECT v FROM t WHERE id = ?", table.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].AsInt() != 44 {
		t.Fatalf("got %v", out.Rows)
	}
	del, err := x.Execute("DELETE FROM t WHERE id = $1", table.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if del.Rows[0][0].AsInt() != 1 {
		t.Fatalf("deleted %v", del.Rows[0][0])
	}
}

func TestBindingArityErrors(t *testing.T) {
	_, x := bindTestDB(t)
	cases := []struct {
		src  string
		args []table.Value
	}{
		{"SELECT * FROM t WHERE id = $1", nil},
		{"SELECT * FROM t WHERE id = $1", []table.Value{table.Int(1), table.Int(2)}},
		{"SELECT * FROM t WHERE id = $9", []table.Value{table.Int(1)}},
		{"SELECT * FROM t", []table.Value{table.Int(1)}},
	}
	for _, c := range cases {
		if _, err := x.Execute(c.src, c.args...); err == nil {
			t.Errorf("Execute(%q, %d args) unexpectedly succeeded", c.src, len(c.args))
		} else if !strings.Contains(err.Error(), "parameter") && !strings.Contains(err.Error(), "argument") {
			t.Errorf("Execute(%q): unhelpful error %v", c.src, err)
		}
	}
}

func TestNullArgumentErrsCleanly(t *testing.T) {
	_, x := bindTestDB(t)
	// NULL travels the binding path but no operator accepts it: the
	// comparison errors instead of panicking or silently matching.
	if _, err := x.Execute("SELECT * FROM t WHERE id = $1", table.Null()); err == nil {
		t.Fatal("comparing against NULL unexpectedly succeeded")
	}
	if _, err := x.Execute("INSERT INTO t VALUES ($1, $2, $3)",
		table.Int(9), table.Null(), table.Str("x")); err == nil {
		t.Fatal("inserting NULL unexpectedly succeeded")
	}
}

func TestPlanCacheShapeSharing(t *testing.T) {
	_, x := bindTestDB(t)
	entries0, _, _ := x.PlanCacheStats()

	// Three spellings of one shape: ?, $1, and extra whitespace.
	for _, src := range []string{
		"SELECT name FROM t WHERE id = ?",
		"SELECT name FROM t WHERE id = $1",
		"SELECT name FROM t WHERE id = ?", // repeat: must hit
	} {
		if _, err := x.Execute(src, table.Int(1)); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	entries, hits, misses := x.PlanCacheStats()
	if entries != entries0+1 {
		t.Errorf("expected one new cache entry, got %d (from %d)", entries, entries0)
	}
	if hits < 1 {
		t.Errorf("expected at least one cache hit, got %d (misses %d)", hits, misses)
	}

	// The two distinct spellings share one parsed statement.
	p1, err := x.Prepare("SELECT name FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := x.Prepare("SELECT name FROM t WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stmt() != p2.Stmt() {
		t.Error("spelling variants of one shape did not share a cached parse")
	}
	if p1.NumParams() != 1 || p2.NumParams() != 1 {
		t.Errorf("numParams = %d, %d; want 1, 1", p1.NumParams(), p2.NumParams())
	}
}

// TestPlaceholderDoesNotNarrowKeyRange pins the leakage-relevant plan
// property: a bound parameter never feeds the index key-range
// extraction, so a parameterized point query on an indexed column scans
// the same (full) input regardless of the argument — the plan depends
// on the statement shape alone.
func TestPlaceholderDoesNotNarrowKeyRange(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := New(db)
	for _, stmt := range []string{
		"CREATE TABLE k (id INTEGER, v INTEGER) INDEX ON id",
		"INSERT INTO k VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
	} {
		if _, err := x.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	// Literal point query: planner may use the index.
	if _, err := x.Execute("SELECT v FROM k WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	literalUsedIndex := db.LastPlan.UsedIndex

	// Parameterized shape: must NOT use the (value-derived) index range.
	res, err := x.Execute("SELECT v FROM k WHERE id = $1", table.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if db.LastPlan.UsedIndex {
		t.Error("bound parameter narrowed an index key range: the plan depends on the argument value")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 20 {
		t.Fatalf("wrong result %v", res.Rows)
	}
	_ = literalUsedIndex // documented contrast; literal queries may narrow
}
