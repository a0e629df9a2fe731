package sql

import (
	"fmt"
	"strings"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// These tests pin the compiled-plan pipeline: ORDER BY / LIMIT
// semantics, the obliviousness of the composed Sort+Limit plan, and the
// cache's replay behavior (hit path skips compilation, EXPLAIN shows
// the very plan the cache serves).

func planExec(t *testing.T) *Executor {
	t.Helper()
	x := New(core.MustOpen(core.Config{}))
	for _, stmt := range []string{
		"CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8)) CAPACITY = 16",
		"INSERT INTO t VALUES (1, 30, 'a'), (2, 10, 'b'), (3, 40, 'c'), (4, 20, 'd'), (5, 5, 'e')",
	} {
		mustExec(t, x, stmt)
	}
	return x
}

func TestOrderByAscDescAndLimit(t *testing.T) {
	x := planExec(t)
	res := mustExec(t, x, "SELECT id, v FROM t WHERE v >= 10 ORDER BY v")
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[1].AsInt())
	}
	want := []int64{10, 20, 30, 40}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ORDER BY v = %v, want %v", got, want)
	}

	res = mustExec(t, x, "SELECT id, v FROM t WHERE v >= 10 ORDER BY v DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][1].AsInt() != 40 || res.Rows[1][1].AsInt() != 30 {
		t.Fatalf("ORDER BY v DESC LIMIT 2 = %v", res.Rows)
	}

	// LIMIT past the match count returns every matching row.
	res = mustExec(t, x, "SELECT id FROM t WHERE v > 25 ORDER BY id LIMIT 10")
	if len(res.Rows) != 2 {
		t.Fatalf("over-limit rows = %v", res.Rows)
	}

	// LIMIT without ORDER BY compacts and truncates: row identity is
	// unspecified, the count is not.
	res = mustExec(t, x, "SELECT id FROM t LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("bare LIMIT returned %d rows, want 3", len(res.Rows))
	}

	res = mustExec(t, x, "SELECT id FROM t WHERE v = 999 ORDER BY id LIMIT 3")
	if len(res.Rows) != 0 {
		t.Fatalf("no-match ORDER BY LIMIT returned %v", res.Rows)
	}
}

func TestOrderByOverGroupByAndJoin(t *testing.T) {
	x := planExec(t)
	mustExec(t, x, "INSERT INTO t VALUES (6, 10, 'f'), (7, 10, 'g')")
	res := mustExec(t, x, "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 40 || res.Rows[1][0].AsInt() != 30 {
		t.Fatalf("grouped ORDER BY DESC LIMIT = %v", res.Rows)
	}
	if res.Cols[1] != "COUNT(*)" {
		t.Fatalf("grouped cols = %v", res.Cols)
	}

	mustExec(t, x, "CREATE TABLE u (fk INTEGER, w INTEGER) CAPACITY = 8")
	mustExec(t, x, "INSERT INTO u VALUES (1, 7), (3, 9), (5, 8)")
	res = mustExec(t, x, "SELECT id, w FROM t JOIN u ON id = fk ORDER BY w DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][1].AsInt() != 9 || res.Rows[1][1].AsInt() != 8 {
		t.Fatalf("join ORDER BY = %v", res.Rows)
	}
}

func TestOrderByGroupMismatchRejected(t *testing.T) {
	x := planExec(t)
	if _, err := x.Execute("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY id"); err == nil {
		t.Fatal("ORDER BY on a non-grouping column over GROUP BY accepted")
	}
	if _, err := x.Execute("SELECT COUNT(*) FROM t ORDER BY id"); err == nil {
		t.Fatal("ORDER BY over a scalar aggregate accepted")
	}
	if _, err := x.Execute("SELECT id FROM t ORDER BY id FORCE Hash"); err == nil {
		t.Fatal("FORCE combined with ORDER BY accepted")
	}
}

func TestLimitParameterRejected(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM t LIMIT ?",
		"SELECT * FROM t LIMIT $1",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "LIMIT must be a literal") {
			t.Fatalf("%s: parameter limit accepted (%v)", src, err)
		}
	}
}

func TestOrderLimitStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM t WHERE (v > 1) ORDER BY k LIMIT 3",
		"SELECT * FROM t ORDER BY k DESC",
		"SELECT * FROM t LIMIT 0",
		"EXPLAIN SELECT * FROM t WHERE (v = $1) ORDER BY k LIMIT 3",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := stmt.(fmt.Stringer).String(); got != src {
			t.Fatalf("String() = %q, want %q", got, src)
		}
	}
	// ASC normalizes away.
	stmt, err := Parse("SELECT * FROM t ORDER BY k ASC")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.(fmt.Stringer).String(); got != "SELECT * FROM t ORDER BY k" {
		t.Fatalf("ASC did not normalize: %q", got)
	}
	if _, err := Parse("EXPLAIN EXPLAIN SELECT * FROM t"); err == nil {
		t.Fatal("nested EXPLAIN accepted")
	}
}

// TestOrderLimitTraceObliviousAcrossData is the headline obliviousness
// claim for the composed plan: one statement shape, three data
// distributions with *different match counts* (all, none, scattered),
// different bound arguments — byte-identical traces. The Sort+Limit
// pipeline skips the stats scan and sizes everything from |T| and the
// public limit, so unlike a plain SELECT not even |R| distinguishes the
// runs.
func TestOrderLimitTraceObliviousAcrossData(t *testing.T) {
	const shape = "SELECT id, v FROM t WHERE v = $1 ORDER BY id LIMIT 4"
	run := func(vals []int64, arg int64) *trace.Tracer {
		t.Helper()
		tr := trace.New()
		db, err := core.Open(core.Config{Tracer: tr, Key: make([]byte, 32)})
		if err != nil {
			t.Fatal(err)
		}
		x := New(db)
		mustExec(t, x, "CREATE TABLE t (id INTEGER, v INTEGER) CAPACITY = 16")
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i, v := range vals {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, v)
		}
		mustExec(t, x, sb.String())
		prep, err := x.Prepare(shape)
		if err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		if _, err := prep.Exec([]table.Value{table.Int(arg)}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	allMatch := run([]int64{7, 7, 7, 7, 7, 7, 7, 7}, 7)
	noneMatch := run([]int64{1, 2, 3, 4, 5, 6, 7, 8}, 99)
	scattered := run([]int64{5, 9, 5, 9, 5, 9, 5, 9}, 9)
	if d := trace.Diff(allMatch, noneMatch); d != "" {
		t.Fatalf("ORDER BY/LIMIT trace depends on the match count: %s", d)
	}
	if d := trace.Diff(allMatch, scattered); d != "" {
		t.Fatalf("ORDER BY/LIMIT trace depends on the data distribution: %s", d)
	}
	if allMatch.Len() == 0 {
		t.Fatal("no events traced; the test is vacuous")
	}
}

// TestCompiledPlanCacheReplay pins the cache-hit fast path: the first
// execution of a shape compiles its plan, every further execution —
// with different arguments — replays it, and EXPLAIN renders from the
// same cached entry without compiling again.
func TestCompiledPlanCacheReplay(t *testing.T) {
	x := planExec(t)
	base := x.CacheStats()

	prep, err := x.Prepare("SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec([]table.Value{table.Int(10)}); err != nil {
		t.Fatal(err)
	}
	mid := x.CacheStats()
	if got := mid.Compiles - base.Compiles; got != 1 {
		t.Fatalf("first execution compiled %d times, want 1", got)
	}
	for _, arg := range []int64{20, 30, 40} {
		if _, err := prep.Exec([]table.Value{table.Int(arg)}); err != nil {
			t.Fatal(err)
		}
	}
	after := x.CacheStats()
	if got := after.Compiles - base.Compiles; got != 1 {
		t.Fatalf("re-executions recompiled: %d compiles, want 1", got)
	}
	if got := after.CompileSkips - mid.CompileSkips; got != 3 {
		t.Fatalf("compiled-plan replays = %d, want 3", got)
	}

	// EXPLAIN of the same shape shares the entry: no new compilation,
	// and the rendered plan is the one the executions replayed.
	expl := mustExec(t, x, "EXPLAIN SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 2")
	if got := x.CacheStats().Compiles - base.Compiles; got != 1 {
		t.Fatalf("EXPLAIN recompiled: %d compiles, want 1", got)
	}
	var lines []string
	for _, r := range expl.Rows {
		lines = append(lines, r[0].AsString())
	}
	rendered := strings.Join(lines, "\n")
	for _, want := range []string{"Limit 2", "Sort id", "Filter (v = $1)", "Scan t"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, rendered)
		}
	}
}

// TestDDLInvalidatesCompiledPlans pins the catalog epoch: a plan
// compiled against one catalog recompiles after DDL instead of
// replaying stale access-path decisions.
func TestDDLInvalidatesCompiledPlans(t *testing.T) {
	x := planExec(t)
	prep, err := x.Prepare("SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec([]table.Value{table.Int(10)}); err != nil {
		t.Fatal(err)
	}
	before := x.CacheStats()
	mustExec(t, x, "CREATE TABLE other (z INTEGER)")
	if _, err := prep.Exec([]table.Value{table.Int(10)}); err != nil {
		t.Fatal(err)
	}
	after := x.CacheStats()
	if got := after.Compiles - before.Compiles; got != 1 {
		t.Fatalf("post-DDL execution compiled %d times, want 1 (stale plan must not replay)", got)
	}
}

// TestAggregateColumnResolutionScopedToJoins: the r_ prefix fallback
// for aggregate columns applies only to joined inputs. A plain table
// with an r_-named column must not satisfy a reference to the bare
// name.
func TestAggregateColumnResolutionScopedToJoins(t *testing.T) {
	x := New(core.MustOpen(core.Config{}))
	mustExec(t, x, "CREATE TABLE odd (k INTEGER, r_v INTEGER) CAPACITY = 8")
	mustExec(t, x, "INSERT INTO odd VALUES (1, 10)")
	if _, err := x.Execute("SELECT SUM(v) FROM odd"); err == nil ||
		!strings.Contains(err.Error(), `no column "v"`) {
		t.Fatalf("SUM(v) over a plain table with only r_v: %v", err)
	}
	// Over a join, right-side columns resolve in the joined schema —
	// directly when unique, and a duplicate bare name resolves to the
	// left side (the joined schema renames the right duplicate r_v).
	mustExec(t, x, "CREATE TABLE l (k INTEGER, v INTEGER) CAPACITY = 8")
	mustExec(t, x, "CREATE TABLE r (k INTEGER, v INTEGER, w INTEGER) CAPACITY = 8")
	mustExec(t, x, "INSERT INTO l VALUES (1, 100)")
	mustExec(t, x, "INSERT INTO r VALUES (1, 7, 3)")
	res := mustExec(t, x, "SELECT SUM(w), SUM(v) FROM l JOIN r ON l.k = r.k")
	if res.Rows[0][0].AsFloat() != 3 || res.Rows[0][1].AsFloat() != 100 {
		t.Fatalf("join aggregate resolution = %v, want [3 100]", res.Rows)
	}
}

// TestEngineAPIDDLInvalidatesCompiledPlans: DDL issued through the
// embedded engine API (not SQL) must also void compiled plans — the
// catalog epoch lives on the engine, not the SQL layer.
func TestEngineAPIDDLInvalidatesCompiledPlans(t *testing.T) {
	x := New(core.MustOpen(core.Config{}))
	mustExec(t, x, "CREATE TABLE t (k INTEGER, v INTEGER) INDEX ON k CAPACITY = 16")
	mustExec(t, x, "INSERT INTO t VALUES (100, 1), (200, 2)")
	prep, err := x.Prepare("SELECT v FROM t WHERE k = 100")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec(nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("pre-DDL exec = %v, %v", res, err)
	}
	// Drop and re-create through the core API: the new table indexes v,
	// and the only k=100 row has v != 100 — a stale IndexScan plan
	// ranging [100,100] over the NEW index would silently miss it.
	if err := x.DB().DropTable("t"); err != nil {
		t.Fatal(err)
	}
	schema := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindInt},
	)
	if _, err := x.DB().CreateTable("t", schema, core.TableOptions{
		Kind: core.KindBoth, KeyColumn: "v", Capacity: 16,
	}); err != nil {
		t.Fatal(err)
	}
	if err := x.DB().Insert("t", table.Row{table.Int(100), table.Int(7)}); err != nil {
		t.Fatal(err)
	}
	res, err = prep.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("post-core-DDL exec replayed a stale plan: %v", res.Rows)
	}
}

// TestConcurrentExplainSharedPlan hammers one cached shape with
// concurrent EXPLAINs and executions; annotation and rendering share
// the plan object, so this is a race-detector test.
func TestConcurrentExplainSharedPlan(t *testing.T) {
	x := planExec(t)
	prep, err := x.Prepare("SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec([]table.Value{table.Int(10)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					if _, err := x.Execute("EXPLAIN SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 2"); err != nil {
						done <- err
						return
					}
				} else if _, err := prep.Exec([]table.Value{table.Int(20)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplainOfLiteralsStaysOutOfCache: a stream of distinct literal
// EXPLAINs must not occupy (and at the limit, wipe) the shape cache.
func TestExplainOfLiteralsStaysOutOfCache(t *testing.T) {
	x := planExec(t)
	before := x.CacheStats().Entries
	for i := 0; i < 10; i++ {
		mustExec(t, x, fmt.Sprintf("EXPLAIN SELECT * FROM t WHERE v = %d", i))
	}
	if got := x.CacheStats().Entries; got != before {
		t.Fatalf("literal EXPLAINs grew the cache from %d to %d entries", before, got)
	}
	// Parameterized EXPLAIN does cache — and shares with execution.
	mustExec(t, x, "EXPLAIN SELECT * FROM t WHERE v = $1")
	if got := x.CacheStats().Entries; got != before+1 {
		t.Fatalf("parameterized EXPLAIN did not cache: %d entries, want %d", got, before+1)
	}
}

// TestExplainBindsNothing: EXPLAIN of a parameterized shape runs with
// zero arguments — the plan is pure shape, so there is nothing to bind.
func TestExplainBindsNothing(t *testing.T) {
	x := planExec(t)
	res, err := x.Execute("EXPLAIN SELECT * FROM t WHERE id = $1 AND v < $2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Cols[0] != "plan" {
		t.Fatalf("EXPLAIN result = %+v", res)
	}
	// And pick counters tally select and ORDER BY/LIMIT executions.
	mustExec(t, x, "SELECT id FROM t WHERE v = 10")
	mustExec(t, x, "SELECT id FROM t ORDER BY id LIMIT 2")
	picks := x.DB().PlanStats()
	if picks.Sorts == 0 || picks.Limits == 0 {
		t.Fatalf("pick counters missing sort/limit: %+v", picks)
	}
	if len(picks.Select) == 0 {
		t.Fatalf("pick counters missing selects: %+v", picks)
	}
}

// BenchmarkPlanCacheHit measures the cache-hit execution path: one
// prepared shape re-executed with bound arguments, parse and plan
// compilation amortized to zero.
func BenchmarkPlanCacheHit(b *testing.B) {
	x := New(core.MustOpen(core.Config{}))
	for _, stmt := range []string{
		"CREATE TABLE t (id INTEGER, v INTEGER) CAPACITY = 64",
	} {
		if _, err := x.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := x.Execute(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%8)); err != nil {
			b.Fatal(err)
		}
	}
	prep, err := x.Prepare("SELECT id FROM t WHERE v = $1 ORDER BY id LIMIT 4")
	if err != nil {
		b.Fatal(err)
	}
	args := []table.Value{table.Int(3)}
	// Warm the compiled plan so every timed iteration is a replay.
	if _, err := prep.Exec(args); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Exec(args); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs := x.CacheStats()
	if cs.CompileSkips == 0 {
		b.Fatal("benchmark never hit the compiled-plan fast path")
	}
}
