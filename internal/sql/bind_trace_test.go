package sql

import (
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// These tests are the leakage statement for parameter binding: two
// executions of one prepared statement shape with different argument
// values produce byte-identical untrusted traces, provided the public
// parameters (table sizes, matching-row counts — which the engine
// already publishes as output sizes) coincide. Argument values flow
// only through the in-enclave evaluator; nothing the host observes
// depends on them.

// fixedTraceKey makes two engines byte-comparable: same key → same
// enclave PRNG stream → same salts and store layout.
var fixedTraceKey = make([]byte, 32)

// tracedExec builds a fresh traced engine, loads the fixture, prepares
// shape, executes it with arg, and returns the execution-only trace.
func tracedExec(t *testing.T, shape string, arg table.Value) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	db, err := core.Open(core.Config{Tracer: tr, Key: fixedTraceKey})
	if err != nil {
		t.Fatal(err)
	}
	x := New(db)
	for _, stmt := range []string{
		"CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8))",
		"INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c'), (4, 20, 'd'), (5, 30, 'e'), (6, 30, 'f'), (7, 40, 'g'), (8, 40, 'h')",
	} {
		if _, err := x.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	prep, err := x.Prepare(shape)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if _, err := prep.Exec([]table.Value{arg}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBoundArgsTraceIdenticalSelect(t *testing.T) {
	// Both arguments match exactly 2 of 8 rows: public sizes equal.
	const shape = "SELECT name FROM t WHERE v = $1"
	trA := tracedExec(t, shape, table.Int(10))
	trB := tracedExec(t, shape, table.Int(40))
	if d := trace.Diff(trA, trB); d != "" {
		t.Fatalf("prepared SELECT trace depends on the bound argument: %s", d)
	}
	if trA.Len() == 0 {
		t.Fatal("no events traced; the test is vacuous")
	}
}

func TestBoundArgsTraceIdenticalAggregate(t *testing.T) {
	// Aggregates scan everything and emit one row: any two arguments
	// give equal public sizes, even with different matching counts.
	const shape = "SELECT COUNT(*), SUM(v) FROM t WHERE v < $1"
	trA := tracedExec(t, shape, table.Int(15))
	trB := tracedExec(t, shape, table.Int(35))
	if d := trace.Diff(trA, trB); d != "" {
		t.Fatalf("prepared aggregate trace depends on the bound argument: %s", d)
	}
	if trA.Len() == 0 {
		t.Fatal("no events traced; the test is vacuous")
	}
}

func TestBoundArgsTraceIdenticalUpdate(t *testing.T) {
	// UPDATE rewrites every block of a flat table obliviously; both the
	// predicate argument and the SET argument differ across runs.
	const shape = "UPDATE t SET v = $1 WHERE v = $2"
	run := func(set, match int64) *trace.Tracer {
		t.Helper()
		tr := trace.New()
		db, err := core.Open(core.Config{Tracer: tr, Key: fixedTraceKey})
		if err != nil {
			t.Fatal(err)
		}
		x := New(db)
		for _, stmt := range []string{
			"CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8))",
			"INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c'), (4, 20, 'd')",
		} {
			if _, err := x.Execute(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		prep, err := x.Prepare(shape)
		if err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		if _, err := prep.Exec([]table.Value{table.Int(set), table.Int(match)}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trA := run(99, 10)
	trB := run(77, 20)
	if d := trace.Diff(trA, trB); d != "" {
		t.Fatalf("prepared UPDATE trace depends on the bound arguments: %s", d)
	}
	if trA.Len() == 0 {
		t.Fatal("no events traced; the test is vacuous")
	}
}
