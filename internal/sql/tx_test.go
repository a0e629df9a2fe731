package sql

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

func txPrep(t *testing.T, x *Executor, q string) *Prepared {
	t.Helper()
	p, err := x.Prepare(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return p
}

func countRows(t *testing.T, x *Executor, q string) int {
	t.Helper()
	return len(mustExec(t, x, q).Rows)
}

func TestTxControlParses(t *testing.T) {
	cases := map[string]string{
		"BEGIN":                "BEGIN",
		"begin transaction":    "BEGIN",
		"BEGIN WORK":           "BEGIN",
		"COMMIT":               "COMMIT",
		"commit work":          "COMMIT",
		"ROLLBACK":             "ROLLBACK",
		"ROLLBACK TRANSACTION": "ROLLBACK",
	}
	for src, want := range cases {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := stmt.(fmt.Stringer).String(); got != want {
			t.Fatalf("%s: String() = %q, want %q", src, got, want)
		}
		if !IsTxControl(stmt) {
			t.Fatalf("%s: not classified as tx control", src)
		}
	}
	if _, err := Parse("BEGIN EXTRA"); err == nil {
		t.Fatal("trailing token after BEGIN accepted")
	}
}

func TestTxControlClassifiers(t *testing.T) {
	b, _ := Parse("BEGIN")
	c, _ := Parse("COMMIT")
	r, _ := Parse("ROLLBACK")
	ins, _ := Parse("INSERT INTO t VALUES (1)")
	ddl, _ := Parse("CREATE TABLE t (a INTEGER)")
	sel, _ := Parse("SELECT * FROM t")
	if !IsBegin(b) || !IsCommit(c) || !IsRollback(r) {
		t.Fatal("tx-control classifiers misfire")
	}
	if IsTxControl(ins) || IsTxControl(sel) {
		t.Fatal("non-control statements classified as tx control")
	}
	if !IsWrite(ins) || IsWrite(sel) || IsWrite(ddl) {
		t.Fatal("IsWrite misclassifies")
	}
	if !IsDDL(ddl) || IsDDL(ins) {
		t.Fatal("IsDDL misclassifies")
	}
}

func TestTxControlNeedsSession(t *testing.T) {
	x := newExec(t)
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := x.Execute(q); err == nil ||
			!strings.Contains(err.Error(), "transaction-aware") {
			t.Fatalf("%s executed statement-wise: %v", q, err)
		}
	}
}

func TestTxStateLifecycle(t *testing.T) {
	var st TxState
	if st.Active() {
		t.Fatal("zero state active")
	}
	if err := st.Rollback(); err == nil {
		t.Fatal("rollback without begin succeeded")
	}
	if _, err := st.Take(); err == nil {
		t.Fatal("take without begin succeeded")
	}
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(); err == nil {
		t.Fatal("nested begin succeeded")
	}
	x := newExec(t)
	seed(t, x)
	ins := txPrep(t, x, "INSERT INTO emp VALUES (7, 'gus', 'eng', 95)")
	if err := st.Buffer(ins, nil); err != nil {
		t.Fatal(err)
	}
	if st.Pending() != 1 {
		t.Fatalf("pending = %d", st.Pending())
	}
	ddl := txPrep(t, x, "CREATE TABLE other (a INTEGER)")
	if err := st.Buffer(ddl, nil); err == nil {
		t.Fatal("DDL buffered")
	}
	sel := txPrep(t, x, "SELECT * FROM emp")
	if err := st.Buffer(sel, nil); err == nil {
		t.Fatal("SELECT buffered")
	}
	if err := st.Rollback(); err != nil {
		t.Fatal(err)
	}
	if st.Active() || st.Pending() != 0 {
		t.Fatal("rollback left state open")
	}
}

func TestExecTxCommitsBatchAtomically(t *testing.T) {
	x := newExec(t)
	seed(t, x)
	var st TxState
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	ins := txPrep(t, x, "INSERT INTO emp VALUES (?, ?, 'eng', ?)")
	upd := txPrep(t, x, "UPDATE emp SET salary = salary + ? WHERE dept = 'eng'")
	del := txPrep(t, x, "DELETE FROM emp WHERE id = ?")
	for _, it := range []struct {
		p    *Prepared
		args []table.Value
	}{
		{ins, []table.Value{table.Int(7), table.Str("gus"), table.Int(95)}},
		{upd, []table.Value{table.Int(10)}},
		{del, []table.Value{table.Int(5)}},
	} {
		if err := st.Buffer(it.p, it.args); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing applied while buffered.
	if n := countRows(t, x, "SELECT * FROM emp"); n != 6 {
		t.Fatalf("buffered writes applied early: %d rows", n)
	}
	items, err := st.Take()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Local(x).Commit(items)
	if err != nil {
		t.Fatal(err)
	}
	// 1 insert + 4 updates (eng now includes gus) + 1 delete.
	if got := res.Rows[0][0].AsInt(); got != 6 {
		t.Fatalf("total affected = %d, want 6", got)
	}
	if n := countRows(t, x, "SELECT * FROM emp"); n != 6 {
		t.Fatalf("%d rows after commit, want 6", n)
	}
	if n := countRows(t, x, "SELECT * FROM emp WHERE salary = 130"); n != 1 {
		t.Fatal("update in batch not applied")
	}
	if n := countRows(t, x, "SELECT * FROM emp WHERE id = 5"); n != 0 {
		t.Fatal("delete in batch not applied")
	}
}

func TestExecTxFailureRollsBackWholeBatch(t *testing.T) {
	x := newExec(t)
	seed(t, x)
	var st TxState
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	good := txPrep(t, x, "INSERT INTO emp VALUES (8, 'hana', 'eng', 90)")
	// A post-image too wide for name VARCHAR(16) fails mid-batch.
	bad := txPrep(t, x, "UPDATE emp SET name = 'this name is far too long for the column' WHERE id = 1")
	if err := st.Buffer(good, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Buffer(bad, nil); err != nil {
		t.Fatal(err)
	}
	items, err := st.Take()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Local(x).Commit(items); err == nil {
		t.Fatal("batch with invalid statement committed")
	}
	// The earlier insert must have been undone with it.
	if n := countRows(t, x, "SELECT * FROM emp WHERE id = 8"); n != 0 {
		t.Fatal("failed transaction left its first statement applied")
	}
	if n := countRows(t, x, "SELECT * FROM emp"); n != 6 {
		t.Fatalf("%d rows after failed tx, want 6", n)
	}
}

func TestExecTxArityChecked(t *testing.T) {
	x := newExec(t)
	seed(t, x)
	ins := txPrep(t, x, "INSERT INTO emp VALUES (?, ?, ?, ?)")
	if _, err := Local(x).Commit([]TxItem{{Prep: ins, Args: []table.Value{table.Int(1)}}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestTxAndAutocommitDeferredErrorRollback: a write whose predicate
// fails only as it is evaluated — a division by zero on one row of
// three — is undone on every path a write takes: a statement run
// alone, an autocommit write in a write run, and a committed
// transaction. Each answers the error, keeps every row and makes no
// journal commit, on a flat-only table matched by a flat pass and on
// an indexed one matched through its index.
func TestTxAndAutocommitDeferredErrorRollback(t *testing.T) {
	const del = "DELETE FROM d WHERE 1 / v = 1"
	paths := []struct {
		name string
		run  func(x *Executor, prep *Prepared) (*core.Result, error)
	}{
		{"Execute", func(x *Executor, _ *Prepared) (*core.Result, error) { return x.Execute(del) }},
		{"ExecBatch", func(x *Executor, prep *Prepared) (*core.Result, error) {
			res, errs := x.ExecBatch([][]TxItem{{{Prep: prep}}})
			return res[0], errs[0]
		}},
		{"Commit", func(x *Executor, prep *Prepared) (*core.Result, error) {
			var st TxState
			if err := st.Begin(); err != nil {
				return nil, err
			}
			if err := st.Buffer(prep, nil); err != nil {
				return nil, err
			}
			return st.Commit(Local(x))
		}},
	}
	for _, kind := range []struct{ name, clause string }{{"flat", ""}, {"indexed", " STORAGE = BOTH INDEX ON k"}} {
		for _, p := range paths {
			t.Run(p.name+"/"+kind.name, func(t *testing.T) {
				db := core.MustOpen(core.Config{})
				l, err := wal.Open(filepath.Join(t.TempDir(), "d.wal"), crypt.NewRandomKey(), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if err := db.AttachWAL(l); err != nil {
					t.Fatal(err)
				}
				x := New(db)
				mustExec(t, x, "CREATE TABLE d (k INTEGER, v INTEGER)"+kind.clause+" CAPACITY = 8")
				mustExec(t, x, "INSERT INTO d VALUES (1, 0), (2, 1), (3, 1)")
				commits := db.WALStats().Commits
				if _, err := p.run(x, txPrep(t, x, del)); err == nil || !strings.Contains(err.Error(), "division by zero") {
					t.Fatalf("answered %v, want the division by zero", err)
				}
				if n := countRows(t, x, "SELECT * FROM d"); n != 3 {
					t.Fatalf("%d rows left, want all 3", n)
				}
				if n := db.WALStats().Commits - commits; n != 0 {
					t.Fatalf("failed delete made %d journal commits", n)
				}
			})
		}
	}
}

// TestTxDurability is the cross-layer contract: a committed transaction
// survives a crash as one unit, an uncommitted one vanishes as one unit.
func TestTxDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := core.MustOpen(core.Config{})
	l, err := wal.Open(path, key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	x := New(db)
	seed(t, x)

	// Committed transaction.
	var st TxState
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := st.Buffer(txPrep(t, x, "INSERT INTO emp VALUES (7, 'gus', 'eng', 95)"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Buffer(txPrep(t, x, "DELETE FROM emp WHERE id = 1"), nil); err != nil {
		t.Fatal(err)
	}
	items, err := st.Take()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Local(x).Commit(items); err != nil {
		t.Fatal(err)
	}

	// A second transaction is buffered but never committed: the "crash"
	// below happens with it open, so no trace of it may survive.
	var open TxState
	if err := open.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := open.Buffer(txPrep(t, x, "INSERT INTO emp VALUES (9, 'ida', 'hr', 60)"), nil); err != nil {
		t.Fatal(err)
	}
	l.Close() // crash: engine abandoned, open transaction lost

	l2, err := wal.Open(path, key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recovered := core.MustOpen(core.Config{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	x2 := New(recovered)
	if n := countRows(t, x2, "SELECT * FROM emp WHERE id = 7"); n != 1 {
		t.Fatal("committed transaction's insert lost in recovery")
	}
	if n := countRows(t, x2, "SELECT * FROM emp WHERE id = 1"); n != 0 {
		t.Fatal("committed transaction's delete lost in recovery")
	}
	if n := countRows(t, x2, "SELECT * FROM emp WHERE id = 9"); n != 0 {
		t.Fatal("uncommitted transaction leaked into recovery")
	}
	if n := countRows(t, x2, "SELECT * FROM emp"); n != 6 {
		t.Fatalf("%d rows after recovery, want 6", n)
	}
}

func TestExplainTx(t *testing.T) {
	x := newExec(t)
	res := mustExec(t, x, "EXPLAIN BEGIN")
	if len(res.Rows) == 0 {
		t.Fatal("EXPLAIN BEGIN returned nothing")
	}
	text := ""
	for _, r := range res.Rows {
		text += r[0].AsString() + "\n"
	}
	if !strings.Contains(strings.ToLower(text), "begin") {
		t.Fatalf("EXPLAIN BEGIN output: %s", text)
	}
}

// TestTxRouteDispatch pins the router's decisions with a recording
// Runner: what runs now, what is buffered, what is answered in the
// session, and what reaches Commit.
func TestTxRouteDispatch(t *testing.T) {
	x := newExec(t)
	seed(t, x)
	var ran []string
	var committed []TxItem
	r := Runner{
		Run: func(p *Prepared, args []table.Value) (*core.Result, error) {
			ran = append(ran, p.Kind())
			return p.Exec(args)
		},
		Commit: func(items []TxItem) (*core.Result, error) {
			committed = items
			return Local(x).Commit(items)
		},
	}
	var st TxState
	route := func(q string, args ...table.Value) (*core.Result, error) {
		t.Helper()
		return st.Route(r, txPrep(t, x, q), args)
	}
	isAck := func(res *core.Result, err error) bool {
		return err == nil && res.Affected && res.Rows[0][0].AsInt() == 0
	}

	// Outside a transaction every statement runs now, writes included.
	if _, err := route("INSERT INTO emp VALUES (7, 'gus', 'eng', 95)"); err != nil {
		t.Fatal(err)
	}
	// Arity is checked before anything runs.
	if _, err := route("SELECT * FROM emp WHERE id = ?"); err == nil {
		t.Fatal("wrong arity routed")
	}
	if strings.Join(ran, ",") != "insert" {
		t.Fatalf("ran %v, want [insert]", ran)
	}

	if !isAck(route("BEGIN")) {
		t.Fatal("BEGIN not acknowledged")
	}
	if !isAck(route("DELETE FROM emp WHERE id = ?", table.Int(7))) || st.Pending() != 1 {
		t.Fatalf("write inside a transaction not buffered (pending %d)", st.Pending())
	}
	if res, err := route("SELECT * FROM emp WHERE id = 7"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("read inside a transaction: %v rows, %v; want the pre-transaction row", res, err)
	}
	if _, err := route("CREATE TABLE other (a INTEGER)"); err == nil || !strings.Contains(err.Error(), "DDL") {
		t.Fatalf("DDL inside a transaction: %v", err)
	}
	if strings.Join(ran, ",") != "insert,select" {
		t.Fatalf("ran %v, want [insert select]", ran)
	}
	res, err := route("COMMIT")
	if err != nil || res.Rows[0][0].AsInt() != 1 || len(committed) != 1 || st.Active() {
		t.Fatalf("COMMIT: %v, %v; %d item(s) committed", res, err, len(committed))
	}
	if n := countRows(t, x, "SELECT * FROM emp WHERE id = 7"); n != 0 {
		t.Fatal("committed delete not applied")
	}
	for _, q := range []string{"COMMIT", "ROLLBACK"} {
		if _, err := route(q); err == nil {
			t.Fatalf("%s without BEGIN succeeded", q)
		}
	}
	sel, _ := Parse("SELECT * FROM emp")
	if _, err := st.Control(r, sel); err == nil {
		t.Fatal("Control accepted a SELECT")
	}
}
