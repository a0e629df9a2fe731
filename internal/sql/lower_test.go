package sql

import (
	"testing"

	"oblidb/internal/bdb"
	"oblidb/internal/exec"
	"oblidb/internal/table"
)

// TestResolutionErrorsAtBindTime pins that a statement naming something
// that does not exist fails the same way whatever the table holds.
// Resolution depends only on shape and schema, so the binder reports it
// when it lowers the expression; were it found per row, whether the
// statement errored would reveal whether any row reached the bad
// reference.
func TestResolutionErrorsAtBindTime(t *testing.T) {
	bad := []string{
		// The left conjunct decides whether the right one is evaluated.
		"SELECT * FROM e2 WHERE salary > 0 AND ghost = 1",
		"SELECT * FROM e2 JOIN e3 ON id = eid WHERE salary > 0 AND e9.id = 1",
		"SELECT * FROM e2 WHERE salary > 0 AND NOPE(id) = 1",
		"SELECT * FROM e2 WHERE salary > 0 AND SUBSTR(name, 1) = 'a'",
		"SELECT * FROM e2 WHERE salary > 0 AND LENGTH(name, id) = 1",
		// A GROUP BY key, a SET expression and a projection are only
		// evaluated for matching rows.
		"SELECT ghost, COUNT(*) FROM e2 WHERE salary > 0 GROUP BY ghost",
		"UPDATE e2 SET salary = ghost + 1 WHERE salary > 0",
		"SELECT id, ghost FROM e2 WHERE salary > 0",
	}
	states := []struct {
		name string
		rows string // "" = empty table
	}{
		{"empty", ""},
		{"left conjunct true", "(1, 5, 'a')"},
		{"left conjunct false", "(1, -5, 'a')"},
	}
	errs := make([][]string, len(bad))
	for _, st := range states {
		x := newExec(t)
		mustExec(t, x, "CREATE TABLE e2 (id INTEGER, salary INTEGER, name VARCHAR(8)) CAPACITY = 8")
		mustExec(t, x, "CREATE TABLE e3 (eid INTEGER) CAPACITY = 8")
		mustExec(t, x, "INSERT INTO e3 VALUES (1)")
		if st.rows != "" {
			mustExec(t, x, "INSERT INTO e2 VALUES "+st.rows)
		}
		for i, q := range bad {
			_, err := x.Execute(q)
			if err == nil {
				t.Errorf("%s: accepted %s", st.name, q)
				continue
			}
			errs[i] = append(errs[i], err.Error())
		}
	}
	for i, q := range bad {
		for _, e := range errs[i] {
			if e != errs[i][0] {
				t.Errorf("%s: error depends on the table's contents: %q vs %q", q, errs[i][0], e)
			}
		}
	}
}

// TestRuntimeErrorsStayDeferred documents the other side of the line:
// an error that needs a row's value (here division by zero) is found
// only when a row is evaluated, so it depends on the data. DESIGN.md
// §17 concedes this.
func TestRuntimeErrorsStayDeferred(t *testing.T) {
	x := newExec(t)
	mustExec(t, x, "CREATE TABLE e2 (id INTEGER, salary INTEGER) CAPACITY = 8")
	const q = "SELECT * FROM e2 WHERE salary / 0 = 1"
	if _, err := x.Execute(q); err != nil {
		t.Fatalf("empty table: %v", err)
	}
	mustExec(t, x, "INSERT INTO e2 VALUES (1, 5)")
	if _, err := x.Execute(q); err == nil {
		t.Fatal("division by zero on a row accepted")
	}
}

// TestLoweredExpressions checks the lowered closures against the values
// the expressions should produce, covering the column-constant fast
// path in both orientations, short-circuiting, arithmetic and calls.
func TestLoweredExpressions(t *testing.T) {
	s := table.MustSchema(
		table.Column{Name: "a", Kind: table.KindInt},
		table.Column{Name: "f", Kind: table.KindFloat},
		table.Column{Name: "s", Kind: table.KindString, Width: 16},
	)
	row := table.Row{table.Int(7), table.Float(2.5), table.Str("hello")}
	cases := []struct {
		expr string
		want table.Value
	}{
		{"a > 5", table.Bool(true)},
		{"5 > a", table.Bool(false)},
		{"a = $1", table.Bool(true)},
		{"$1 <> a", table.Bool(false)},
		{"a + 1 >= f * 3", table.Bool(true)},
		{"a > 9 AND a / 0 = 1", table.Bool(false)},
		{"a < 9 OR a / 0 = 1", table.Bool(true)},
		{"NOT a = 7", table.Bool(false)},
		{"-a", table.Int(-7)},
		{"a % 4", table.Int(3)},
		{"f / 2", table.Float(1.25)},
		{"SUBSTR(s, 2, 3)", table.Str("ell")},
		{"SUBSTR(s, 0, 99)", table.Str("hello")},
		{"SUBSTRING(s, 9, 2)", table.Str("")},
		{"LENGTH(s)", table.Int(5)},
		{"s + '!'", table.Str("hello!")},
	}
	r := &resolver{schema: s, rightStart: -1, args: []table.Value{table.Int(7)}}
	for _, c := range cases {
		stmt, err := Parse("SELECT " + c.expr + " FROM t")
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		f, err := r.lower(stmt.(*Select).Items[0].Expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		got, err := f(row)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got.Kind != c.want.Kind || !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

// TestLoweredPredicateZeroAllocs pins the per-row cost of a lowered
// WHERE clause: over a row decoded in place (strings aliasing the
// block), evaluating Q1's and Q3's comparisons allocates nothing.
func TestLoweredPredicateZeroAllocs(t *testing.T) {
	s, err := exec.JoinedSchema(bdb.RankingsSchema(), bdb.UserVisitsSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := bdb.Gen{Rankings: 1, UserVisits: 1, Seed: 1}
	src := append(append(table.Row{}, rows.GenRankings()[0]...), rows.GenUserVisits()[0]...)
	src[1] = table.Int(1500) // past Q1's threshold, so the AND reaches visitDate
	block := make([]byte, s.RecordSize())
	if err := s.EncodeRecord(block, src); err != nil {
		t.Fatal(err)
	}
	row := make(table.Row, s.NumColumns())
	if _, err := s.DecodeRecordInto(row, block, 0); err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse("SELECT * FROM t WHERE pageRank > 1000 AND visitDate >= '" + bdb.Q3DateLo + "'")
	if err != nil {
		t.Fatal(err)
	}
	b := newBinder(nil)
	pred, err := b.Pred(stmt.(*Select).Where, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := src[1].AsInt() > 1000 && src[s.ColIndex("visitDate")].AsString() >= bdb.Q3DateLo
	if got := pred(row); got != want {
		t.Fatalf("pred = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { pred(row) }); n != 0 {
		t.Errorf("lowered predicate allocates %v times per row", n)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}
