package difftest

import (
	"fmt"
	"path/filepath"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/sql"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// chaosEngine is a journaled engine running over a fault-injecting
// store, plus the retry-and-recover policy a resilient application
// would use: retriable errors are retried; a broken engine (containment
// hit a second fault mid-rollback) is rebuilt from its own journal and
// the statement retried there. Anything else — a non-retriable error or
// a statement that never lands — fails the test.
type chaosEngine struct {
	t    *testing.T
	cfg  core.Config
	inj  *faultstore.Injector
	key  []byte
	path string

	db         *core.DB
	x          *sql.Executor
	l          *wal.Log
	recoveries int
}

func newChaosEngine(t *testing.T, seed uint64, sched faultstore.Schedule) *chaosEngine {
	t.Helper()
	e := &chaosEngine{
		t:    t,
		inj:  faultstore.NewInjector(sched),
		key:  crypt.NewRandomKey(),
		path: filepath.Join(t.TempDir(), "chaos.wal"),
	}
	e.cfg = core.Config{Key: e.key, Seed: seed + 1, RowsPerBlock: 4, Fault: e.inj}
	db, err := core.Open(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(e.path, e.key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	e.db, e.l, e.x = db, l, sql.New(db)
	t.Cleanup(func() { e.l.Close() })
	return e
}

// exec runs one statement under chaos. The bound is generous but real:
// the schedule's MaxFaults caps total injections, so a statement that
// still fails after the cap has hit a genuine bug, not bad luck.
func (e *chaosEngine) exec(stmt string) *core.Result {
	e.t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		if e.db.Broken() != nil {
			e.recover()
		}
		res, err := e.x.Execute(stmt)
		if err == nil {
			return res
		}
		if oberr.CodeOf(err) == oberr.CodeEngineFailed || e.db.Broken() != nil {
			// Containment itself failed (a second fault mid-rollback): the
			// in-memory engine is latched broken, but the journal is intact
			// by construction — rebuild from it and retry.
			e.recover()
			continue
		}
		if !oberr.Retriable(err) {
			e.t.Fatalf("non-retriable error under chaos: %s: %v", stmt, err)
		}
	}
	e.t.Fatalf("statement made no progress after 200 attempts: %s", stmt)
	return nil
}

// recover rebuilds the engine from its journal. Recovery replays into a
// fresh engine over the SAME faulty store, so it may itself hit faults;
// each failed replay is discarded wholesale and retried.
func (e *chaosEngine) recover() {
	e.t.Helper()
	e.l.Close()
	for attempt := 0; attempt < 200; attempt++ {
		l, err := wal.Open(e.path, e.key, wal.Options{})
		if err != nil {
			e.t.Fatalf("reopening journal for recovery: %v", err)
		}
		db, err := core.Open(e.cfg)
		if err != nil {
			e.t.Fatal(err)
		}
		if err := db.Recover(l); err != nil {
			l.Close()
			if !oberr.Retriable(err) {
				e.t.Fatalf("recovery failed non-retriably: %v", err)
			}
			continue
		}
		// Recover replays but does not attach; journaling must resume for
		// the next crash. Attaching checkpoints through the faulty store,
		// so it too may need another round.
		if err := db.AttachWAL(l); err != nil {
			l.Close()
			if !oberr.Retriable(err) {
				e.t.Fatalf("re-attaching journal after recovery: %v", err)
			}
			continue
		}
		e.db, e.l, e.x = db, l, sql.New(db)
		e.recoveries++
		return
	}
	e.t.Fatal("recovery made no progress after 200 attempts")
}

// execRun runs a run of consecutive writes under chaos as one engine
// batch (Executor.ExecBatch, the server's write-run entry point). A
// typed-retriable failure rolls the whole run back and answers every
// statement with it, so the run is retried whole; a broken engine is
// rebuilt from its journal first. A run that lands only in part fails
// the test.
func (e *chaosEngine) execRun(stmts []string) []*core.Result {
	e.t.Helper()
	groups := make([][]sql.TxItem, len(stmts))
	for attempt := 0; attempt < 200; attempt++ {
		if e.db.Broken() != nil {
			e.recover()
		}
		for i, stmt := range stmts {
			prep, err := e.x.PrepareOneShot(stmt)
			if err != nil {
				e.t.Fatalf("%s: %v", stmt, err)
			}
			groups[i] = []sql.TxItem{{Prep: prep}}
		}
		res, errs := e.x.ExecBatch(groups)
		var failed error
		for _, err := range errs {
			if err != nil {
				failed = err
				break
			}
		}
		if failed == nil {
			return res
		}
		for i, err := range errs {
			if err == nil {
				e.t.Fatalf("write run landed in part: %s succeeded beside %v", stmts[i], failed)
			}
		}
		if oberr.CodeOf(failed) == oberr.CodeEngineFailed || e.db.Broken() != nil {
			e.recover()
			continue
		}
		if !oberr.Retriable(failed) {
			e.t.Fatalf("non-retriable error under chaos: %v: %v", stmts, failed)
		}
	}
	e.t.Fatalf("write run made no progress after 200 attempts: %v", stmts)
	return nil
}

// TestChaosDifferential is the end-to-end resilience pin: seeded random
// workloads run on a journaled engine under a randomized store-fault
// schedule, diffed statement by statement against a fault-free engine
// with identical configuration. Every statement must either land with
// the reference answer (possibly after typed-retriable retries and
// journal recoveries) — never a wrong answer, a hang, or corruption.
// Afterward the journal is replayed into a clean engine and the final
// state diffed again, pinning that the fault-and-retry history left a
// consistent durable record. The batch subtests send each run of
// consecutive writes through the write-run batch, against the reference
// running them one at a time.
func TestChaosDifferential(t *testing.T) {
	seeds := []uint64{5, 21, 77}
	ops := 50
	if testing.Short() {
		seeds = seeds[:1]
		ops = 25
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosDifferential(t, seed, ops, false) })
		t.Run(fmt.Sprintf("batch/seed=%d", seed), func(t *testing.T) { chaosDifferential(t, seed, ops, true) })
	}
}

// chaosDifferential is one TestChaosDifferential run.
func chaosDifferential(t *testing.T, seed uint64, ops int, batch bool) {
	refDB, err := core.Open(core.Config{Seed: seed + 1, RowsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	refX := sql.New(refDB)
	ce := newChaosEngine(t, seed, faultstore.Schedule{
		Seed:       seed,
		ReadFault:  0.002,
		WriteFault: 0.002,
		MaxFaults:  25,
	})
	for _, ddl := range Setup() {
		if _, err := refX.Execute(ddl); err != nil {
			t.Fatal(err)
		}
		ce.exec(ddl)
	}
	// DML included: affected counts must survive retries exactly (a
	// retried statement must not double-apply).
	check := func(i int, stmt string, got *core.Result) {
		t.Helper()
		want, err := refX.Execute(stmt)
		if err != nil {
			t.Fatalf("op %d on fault-free reference: %s: %v", i, stmt, err)
		}
		if w, g := Canon(want.Cols, want.Rows), Canon(got.Cols, got.Rows); w != g {
			t.Fatalf("op %d diverged under chaos:\n  %s\n chaos:\n%s\n reference:\n%s",
				i, stmt, g, w)
		}
	}
	var run []string
	flush := func(end int) {
		t.Helper()
		if len(run) == 0 {
			return
		}
		for k, res := range ce.execRun(run) {
			check(end-len(run)+k, run[k], res)
		}
		run = run[:0]
	}
	g := NewGenerator(seed)
	for i := 0; i < ops; i++ {
		op := g.Next()
		if batch {
			stmt, err := sql.Parse(op.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if sql.IsWrite(stmt) {
				run = append(run, op.SQL)
				continue
			}
			flush(i)
		}
		check(i, op.SQL, ce.exec(op.SQL))
	}
	flush(ops)
	// The journal must describe the same final state: replay it into a
	// clean (fault-free) engine and diff the full tables.
	ce.l.Close()
	l, err := wal.Open(ce.path, ce.key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec, err := core.Open(core.Config{Key: ce.key, Seed: seed + 1, RowsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Recover(l); err != nil {
		t.Fatalf("chaos run left an unrecoverable journal: %v", err)
	}
	recX := sql.New(rec)
	for _, q := range []string{"SELECT * FROM t0", "SELECT * FROM t1"} {
		want, err := refX.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recX.Execute(q)
		if err != nil {
			t.Fatalf("recovered engine: %s: %v", q, err)
		}
		if w, g := Canon(want.Cols, want.Rows), Canon(got.Cols, got.Rows); w != g {
			t.Fatalf("journal diverged from reference on %s:\n recovered:\n%s\n reference:\n%s", q, g, w)
		}
	}
	if ce.inj.Injected() == 0 {
		t.Fatal("schedule injected no faults — the chaos run was vacuous")
	}
	t.Logf("chaos seed=%d batch=%v: %d faults injected, %d journal recoveries", seed, batch, ce.inj.Injected(), ce.recoveries)
}

// TestChaosTraceIdentity pins the leakage side of the fault path at the
// SQL level: two workloads with identical statement shapes and matched
// per-statement affected counts, but different data values, run under
// the same fault schedule with the same retry policy, must emit
// byte-identical store traces. Fault decisions key on access index only,
// so injection points, rollbacks, and retries line up run to run — a
// host watching a faulty execution learns nothing about values it would
// not learn from a fault-free one.
func TestChaosTraceIdentity(t *testing.T) {
	key := crypt.NewRandomKey()
	shape := func(base int64) []string {
		vals := ""
		for i := int64(0); i < 8; i++ {
			if i > 0 {
				vals += ", "
			}
			vals += fmt.Sprintf("(%d, %d)", base+i, base*3+i)
		}
		return []string{
			"CREATE TABLE c0 (k INTEGER, v INTEGER) CAPACITY = 64",
			"INSERT INTO c0 VALUES " + vals,
			fmt.Sprintf("UPDATE c0 SET v = v + 1 WHERE k < %d", base+4), // matches 4 rows in every run
			fmt.Sprintf("DELETE FROM c0 WHERE k >= %d", base+6),         // matches 2 rows in every run
			"SELECT COUNT(*) FROM c0",
			fmt.Sprintf("INSERT INTO c0 VALUES (%d, %d)", base+100, base),
			fmt.Sprintf("SELECT * FROM c0 WHERE v < %d", base), // matches 0 rows in every run
		}
	}
	fingerprint := func(base int64) [32]byte {
		tr := trace.New()
		inj := faultstore.NewInjector(faultstore.Schedule{Seed: 4242, ReadFault: 0.01, WriteFault: 0.01})
		db, err := core.Open(core.Config{Key: key, Seed: 7, RowsPerBlock: 4, Tracer: tr, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(filepath.Join(t.TempDir(), "trace.wal"), key, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := db.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		x := sql.New(db)
		for si, stmt := range shape(base) {
			for attempt := 0; ; attempt++ {
				_, err := x.Execute(stmt)
				if err == nil {
					break
				}
				if !oberr.Retriable(err) {
					t.Fatalf("statement %d: non-retriable %v", si, err)
				}
				if attempt > 100 {
					t.Fatalf("statement %d: no progress after %d attempts", si, attempt)
				}
			}
		}
		return tr.Fingerprint()
	}
	if fingerprint(1000) != fingerprint(33000) {
		t.Fatal("same-shape/different-data workloads diverged their traces under one fault schedule")
	}
}
