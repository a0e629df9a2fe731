package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/exec"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/plan"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// faultStatements is the containment workload: every mutation kind,
// DDL included, as individually retriable statements. base varies the
// values (never the shape) between runs.
func faultStatements(base int64) []func(*DB) error {
	s := walTestSchema()
	stmts := []func(*DB) error{
		func(db *DB) error {
			_, err := db.CreateTable("ft", s, TableOptions{Capacity: 32})
			return err
		},
	}
	for b := int64(0); b < 3; b++ {
		b := b
		stmts = append(stmts, func(db *DB) error {
			rows := make([]table.Row, 0, 4)
			for i := int64(0); i < 4; i++ {
				v := base + 4*b + i
				rows = append(rows, table.Row{table.Int(v), table.Str(fmt.Sprintf("r%d", v))})
			}
			return db.Insert("ft", rows...)
		})
	}
	stmts = append(stmts,
		func(db *DB) error {
			_, err := db.Update("ft",
				func(r table.Row) bool { return r[0].AsInt() < base+4 },
				func(r table.Row) table.Row { return table.Row{r[0], table.Str("upd")} }, nil)
			return err
		},
		func(db *DB) error {
			_, err := db.Delete("ft",
				func(r table.Row) bool { return r[0].AsInt() >= base+9 }, nil)
			return err
		},
		func(db *DB) error {
			_, err := db.CreateTable("scratch", s, TableOptions{Capacity: 16})
			return err
		},
		func(db *DB) error {
			return db.Insert("scratch", table.Row{table.Int(base), table.Str("gone")})
		},
		func(db *DB) error { return db.DropTable("scratch") },
		func(db *DB) error {
			return db.Insert("ft", table.Row{table.Int(base + 50), table.Str("tail")})
		},
	)
	return stmts
}

// runFaultWorkload drives the containment workload on a journaled
// engine under the given injector, retrying each statement on typed
// retriable errors. It returns the final row snapshot and the journal
// path for recovery cross-checks.
func runFaultWorkload(t *testing.T, key []byte, inj *faultstore.Injector, base int64) (rows []string, walPath string, accesses uint64) {
	t.Helper()
	walPath = filepath.Join(t.TempDir(), "fault.wal")
	db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Fault: inj})
	l := openTestLog(t, walPath, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	for si, stmt := range faultStatements(base) {
		for attempt := 0; ; attempt++ {
			err := stmt(db)
			if err == nil {
				break
			}
			if !oberr.Retriable(err) {
				t.Fatalf("statement %d failed with a non-retriable error: %v", si, err)
			}
			if attempt > 4 {
				t.Fatalf("statement %d still failing after %d attempts: %v", si, attempt, err)
			}
		}
		if berr := db.Broken(); berr != nil {
			t.Fatalf("single-fault workload broke the engine at statement %d: %v", si, berr)
		}
	}
	// The access count is taken before the snapshot read: the sweep must
	// only target accesses the (retriable) statements perform, not the
	// test's own verification Select.
	accesses = inj.Accesses()
	return snapshotRows(t, db, "ft"), walPath, accesses
}

// TestFaultAtEveryAccessIndexContained is the containment pin: inject
// one transient store fault at every access index of a workload and
// require the final state — and the state a fresh engine recovers from
// the journal — to match the fault-free reference exactly. A fault
// mid-mutation must roll back via the undo log and surface as a typed
// retriable error; a retry must then land the statement as if the
// fault never happened.
func TestFaultAtEveryAccessIndexContained(t *testing.T) {
	key := crypt.NewRandomKey()
	counter := faultstore.NewInjector(faultstore.Schedule{})
	ref, _, n := runFaultWorkload(t, key, counter, 100)
	if n == 0 {
		t.Fatal("workload performed no store accesses")
	}
	stride := uint64(1)
	if testing.Short() {
		stride = n/40 + 1
	}
	for k := uint64(0); k < n; k += stride {
		inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
		got, walPath, _ := runFaultWorkload(t, key, inj, 100)
		if inj.Injected() != 1 {
			t.Fatalf("fault at access %d never fired (injected=%d)", k, inj.Injected())
		}
		if rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the engine:\n got %v\nwant %v", k, got, ref)
		}
		// The journal must describe the same state: recover it into a
		// fresh, fault-free engine and compare again.
		l := openTestLog(t, walPath, key, wal.Options{})
		rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4})
		if err := rec.Recover(l); err != nil {
			t.Fatalf("fault at access %d left an unrecoverable journal: %v", k, err)
		}
		if got := snapshotRows(t, rec, "ft"); rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the journal:\n got %v\nwant %v", k, got, ref)
		}
	}
}

// TestFaultTraceIdentity pins the obliviousness of injection and
// retries: two workloads with the same statement shapes but different
// data, run under the same fault schedule with the same retry policy,
// must emit byte-identical traces — the fault decisions key on access
// index only, so the truncation points and retries line up exactly.
func TestFaultTraceIdentity(t *testing.T) {
	key := crypt.NewRandomKey()
	fingerprint := func(base int64) [32]byte {
		tr := trace.New()
		inj := faultstore.NewInjector(faultstore.Schedule{Seed: 99, ReadFault: 0.01, WriteFault: 0.01})
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Tracer: tr, Fault: inj})
		l := openTestLog(t, filepath.Join(t.TempDir(), "ti.wal"), key, wal.Options{})
		if err := db.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		for si, stmt := range faultStatements(base) {
			for attempt := 0; ; attempt++ {
				err := stmt(db)
				if err == nil {
					break
				}
				if !oberr.Retriable(err) {
					t.Fatalf("statement %d: non-retriable %v", si, err)
				}
				if attempt > 50 {
					t.Fatalf("statement %d: no progress after %d attempts", si, attempt)
				}
			}
		}
		return tr.Fingerprint()
	}
	if fingerprint(100) != fingerprint(7700) {
		t.Fatal("same-shape/different-data workloads diverged their traces under one fault schedule")
	}
}

// TestFaultTraceIdentityBoth is TestFaultTraceIdentity on a table
// stored both ways and keyed on id: every rollback restores the index
// by block as well as the flat table by slot, and the traces must still
// be identical whatever the data.
func TestFaultTraceIdentityBoth(t *testing.T) {
	key := crypt.NewRandomKey()
	fingerprint := func(base int64) [32]byte {
		tr := trace.New()
		// Faults 2 500 accesses apart, farther than any rollback here
		// runs, so that none lands in a rollback: a second fault there
		// would latch the engine.
		var at []uint64
		for i := uint64(700); i < 20000; i += 2500 {
			at = append(at, i)
		}
		inj := faultstore.NewInjector(faultstore.Schedule{FailAt: at})
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Tracer: tr, Fault: inj})
		if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "tb.wal"), key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
		stmts := faultStatements(base)
		stmts[0] = func(db *DB) error {
			_, err := db.CreateTable("ft", walTestSchema(), TableOptions{Kind: KindBoth, KeyColumn: "id", Capacity: 32})
			return err
		}
		for si, stmt := range stmts {
			for attempt := 0; ; attempt++ {
				err := stmt(db)
				if err == nil {
					break
				}
				if !oberr.Retriable(err) {
					t.Fatalf("statement %d: non-retriable %v", si, err)
				}
				if attempt > 50 {
					t.Fatalf("statement %d: no progress after %d attempts", si, attempt)
				}
			}
		}
		if n := inj.Injected(); n < 4 {
			t.Fatalf("only %d faults injected in %d accesses", n, inj.Accesses())
		}
		t.Logf("%d faults in %d accesses", inj.Injected(), inj.Accesses())
		return tr.Fingerprint()
	}
	if fingerprint(100) != fingerprint(7700) {
		t.Fatal("same-shape/different-data workloads on a flat-and-index table diverged their traces under one fault schedule")
	}
}

// TestLatchedEngineRefusesEveryEntryPoint pins the containment latch at
// every engine entry point: once a failed rollback has latched the
// engine, each statement — read, write, DDL, transaction, journal
// attach or checkpoint — returns CodeEngineFailed and leaves the rows
// and the journal file exactly as they were.
func TestLatchedEngineRefusesEveryEntryPoint(t *testing.T) {
	s := walTestSchema()
	row := func(id int64) table.Row { return table.Row{table.Int(id), table.Str(fmt.Sprintf("r%d", id))} }
	all := func(table.Row) bool { return true }
	cases := []struct {
		name string
		run  func(db *DB) error
	}{
		{"ExecutePlan read", func(db *DB) error {
			_, err := db.ExecutePlan(&plan.Collect{Input: &plan.Filter{Input: &plan.Scan{Table: "lt"}}}, funcBinder{})
			return err
		}},
		{"ExecutePlan write", func(db *DB) error {
			_, err := db.ExecutePlan(&plan.Delete{Table: "lt"}, funcBinder{})
			return err
		}},
		{"ExecutePlanBatch", func(db *DB) error {
			_, errs := db.ExecutePlanBatch([][]PlanBinding{{
				{Root: &plan.Insert{Table: "lt", Rows: [][]plan.Expr{{row(101)}}}, Binder: funcBinder{}},
				{Root: &plan.Delete{Table: "lt"}, Binder: funcBinder{}},
			}})
			return errs[0]
		}},
		{"CreateTable", func(db *DB) error {
			_, err := db.CreateTable("other", s, TableOptions{Capacity: 8})
			return err
		}},
		{"DropTable", func(db *DB) error { return db.DropTable("lt") }},
		{"Insert", func(db *DB) error { return db.Insert("lt", row(100)) }},
		{"BulkLoad", func(db *DB) error { return db.BulkLoad("empty", []table.Row{row(1), row(2)}) }},
		{"Delete", func(db *DB) error {
			_, err := db.Delete("lt", nil, nil)
			return err
		}},
		{"Update", func(db *DB) error {
			_, err := db.Update("lt", all, func(r table.Row) table.Row { return row(r[0].AsInt() + 50) }, nil)
			return err
		}},
		{"AttachWAL", func(db *DB) error {
			l := db.wal
			db.DetachWAL()
			return db.AttachWAL(l)
		}},
		{"Checkpoint", func(db *DB) error { return db.Checkpoint() }},
		{"Select", func(db *DB) error {
			_, err := db.Select("lt", all, SelectOptions{KeyRange: Point(3)})
			return err
		}},
		{"Aggregate", func(db *DB) error {
			_, err := db.Aggregate("lt", all, []AggregateSpec{{Kind: exec.AggCount}}, nil)
			return err
		}},
		{"GroupAggregate", func(db *DB) error {
			_, err := db.GroupAggregate("lt", nil, func(r table.Row) table.Value { return r[1] },
				[]AggregateSpec{{Kind: exec.AggCount}}, nil)
			return err
		}},
		{"Join", func(db *DB) error {
			_, err := db.Join("lt", "empty", "id", "id", JoinOptions{})
			return err
		}},
	}
	// state renders the catalog and every row of every table.
	state := func(db *DB) []string {
		var out []string
		for _, name := range []string{"lt", "empty", "other"} {
			tab, ok := db.tables[name]
			if !ok {
				continue
			}
			res, err := db.collect(db.serialCtx, tab)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				out = append(out, fmt.Sprintf("%s:%v|%v", name, r[0], r[1]))
			}
			out = append(out, name+" rows "+fmt.Sprint(tab.NumRows()))
		}
		return out
	}
	key := make([]byte, 32)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "latch.wal")
			db := MustOpen(Config{Key: key, Seed: 3})
			if _, err := db.CreateTable("lt", s, TableOptions{Kind: KindBoth, KeyColumn: "id", Capacity: 16}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateTable("empty", s, TableOptions{Capacity: 8}); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 6; i++ {
				if err := db.Insert("lt", row(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.AttachWAL(openTestLog(t, path, key, wal.Options{})); err != nil {
				t.Fatal(err)
			}
			db.latchBroken(errors.New("statement failed"), errors.New("rollback failed"))
			rowsBefore := state(db)
			journalBefore, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			err = tc.run(db)
			if code := oberr.CodeOf(err); code != oberr.CodeEngineFailed {
				t.Fatalf("latched engine: got code %v (err %v), want CodeEngineFailed", code, err)
			}
			if rowsAfter := state(db); rowsDiffer(rowsBefore, rowsAfter) {
				t.Fatalf("latched engine changed rows:\nbefore %v\nafter  %v", rowsBefore, rowsAfter)
			}
			journalAfter, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(journalBefore, journalAfter) {
				t.Fatalf("latched engine rewrote the journal (%d → %d bytes)", len(journalBefore), len(journalAfter))
			}
		})
	}
}

// TestFaultNaiveSelectContained pins the one Path ORAM a statement can
// reach, the per-statement temporary of a naive selection, whose access
// is not fault-atomic: a SELECT forced to Naive runs with one store
// fault at its first access, then its second, and so on until it runs
// through, on one engine. Every faulted run must answer CodeStoreFault
// without latching the engine and return the oblivious memory in use to
// its value before the statement, and the next fault-free SELECT must
// answer exactly as on an engine that never saw a fault.
func TestFaultNaiveSelectContained(t *testing.T) {
	inj := new(armedFault)
	inj.arm(-1)
	db := MustOpen(Config{Key: crypt.NewRandomKey(), Seed: 3, RowsPerBlock: 2, Fault: inj})
	if _, err := db.CreateTable("d", dupSchema(), TableOptions{Capacity: 32}); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("d", sweepRows()); err != nil {
		t.Fatal(err)
	}
	alg := exec.SelectNaive
	sel := func() ([]table.Row, error) {
		res, err := db.Select("d", func(r table.Row) bool { return r[0].AsInt()%3 == 1 }, SelectOptions{Force: &alg})
		if err != nil {
			return nil, err
		}
		if db.LastPlan.SelectAlg != exec.SelectNaive {
			t.Fatalf("forced Naive, planner reports %s", db.LastPlan.SelectAlg)
		}
		return res.Rows, nil
	}
	want, err := sel()
	if err != nil || len(want) == 0 {
		t.Fatalf("fault-free select: %d rows, %v", len(want), err)
	}
	used := db.enc.Used()
	for at := int64(0); ; at++ {
		inj.arm(at)
		_, err := sel()
		fired := inj.fired.Load()
		inj.arm(-1)
		if !fired {
			if err != nil || at < 50 {
				t.Fatalf("unfaulted run after %d faulted ones: %v", at, err)
			}
			t.Logf("%d faulted runs", at)
			break
		}
		if oberr.CodeOf(err) != oberr.CodeStoreFault {
			t.Fatalf("fault at access %d: select answered %v, want CodeStoreFault", at, err)
		}
		if err := db.Broken(); err != nil {
			t.Fatalf("fault at access %d latched the engine: %v", at, err)
		}
		if got := db.enc.Used(); got != used {
			t.Fatalf("fault at access %d left %d B of oblivious memory in use, want %d", at, got, used)
		}
		got, err := sel()
		if err != nil {
			t.Fatalf("select after the fault at access %d: %v", at, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("select after the fault at access %d answered %v, want %v", at, got, want)
		}
	}
}
