package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/plan"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// runEngine opens a journaled engine holding a flat-and-index table bb
// of eight rows and a flat-only table bf of twelve, both at capacity
// 16, which the run below outgrows for bf.
func runEngine(t *testing.T, key []byte, inj *faultstore.Injector) (*DB, string) {
	t.Helper()
	cfg := Config{Key: key, Seed: 7, RowsPerBlock: 4}
	if inj != nil {
		cfg.Fault = inj
	}
	db := MustOpen(cfg)
	s := walTestSchema()
	for _, tc := range []struct {
		name string
		rows int
		opts TableOptions
	}{
		{"bb", 8, TableOptions{Kind: KindBoth, KeyColumn: "id", Capacity: 16}},
		{"bf", 12, TableOptions{Capacity: 16}},
	} {
		if _, err := db.CreateTable(tc.name, s, tc.opts); err != nil {
			t.Fatal(err)
		}
		rows := make([]table.Row, tc.rows)
		for i := range rows {
			rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("%s%d", tc.name, i))}
		}
		if err := db.BulkLoad(tc.name, rows); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := db.AttachWAL(openTestLog(t, path, key, wal.Options{})); err != nil {
		t.Fatal(err)
	}
	return db, path
}

// writeRun is a run of writes: on the flat-only bf, inserts that
// outgrow it, so its flush expands the table first, and an unkeyed
// delete and update; with index set, also on the flat-and-index bb, a
// delete of a row the run inserted and keyed and unkeyed updates and
// deletes.
func writeRun(index bool) []PlanBinding {
	ins := func(name string, keys ...int64) PlanBinding {
		exprs := make([][]plan.Expr, len(keys))
		for i, k := range keys {
			exprs[i] = []plan.Expr{table.Row{table.Int(k), table.Str(fmt.Sprintf("new%d", k))}}
		}
		return PlanBinding{&plan.Insert{Table: name, Rows: exprs}, funcBinder{}}
	}
	del := func(name string, pred table.Pred, key *KeyRange) PlanBinding {
		return PlanBinding{&plan.Delete{Table: name, Cond: predExpr(pred), Key: planRange(key)}, funcBinder{}}
	}
	upd := func(name string, pred table.Pred) PlanBinding {
		set := table.Updater(func(r table.Row) table.Row { r[1] = table.Str("upd"); return r })
		return PlanBinding{&plan.Update{Table: name, Sets: []plan.SetExpr{{Value: set}}, Cond: predExpr(pred)}, funcBinder{}}
	}
	below := func(n int64) table.Pred { return func(r table.Row) bool { return r[0].AsInt() < n } }
	run := []PlanBinding{
		ins("bf", 200, 201, 202, 203, 204),
		del("bf", func(r table.Row) bool { return r[0].AsInt() == 1 || r[0].AsInt() == 201 }, nil),
		upd("bf", below(4)),
		ins("bf", 205),
	}
	if index {
		run = append(run,
			ins("bb", 100, 101),
			del("bb", table.All, Point(100)),
			upd("bb", below(3)),
			ins("bb", 102, 103, 104, 105),
			del("bb", func(r table.Row) bool { return r[0].AsInt() >= 5 && r[0].AsInt() < 100 }, nil),
			ins("bf", 206),
		)
	}
	return run
}

// autocommit makes each statement a group of its own, as the server
// batches its autocommit writes.
func autocommit(items []PlanBinding) [][]PlanBinding {
	groups := make([][]PlanBinding, len(items))
	for i, it := range items {
		groups[i] = []PlanBinding{it}
	}
	return groups
}

// execGroup runs items as a write run of one group, as a transaction
// commits, and returns the group's answer.
func execGroup(db *DB, items ...PlanBinding) (*Result, error) {
	res, errs := db.ExecutePlanBatch([][]PlanBinding{items})
	if errs[0] != nil {
		return nil, errs[0]
	}
	return res[0], nil
}

// runState snapshots both tables.
func runState(t *testing.T, db *DB) []string {
	t.Helper()
	return append(snapshotRows(t, db, "bb"), snapshotRows(t, db, "bf")...)
}

// flatSlots snapshots both tables' flat representations slot by slot:
// each used slot with its row, then the row count. Every other slot is
// unused, however far the table has grown.
func flatSlots(t *testing.T, db *DB) []string {
	t.Helper()
	var out []string
	for _, name := range []string{"bb", "bf"} {
		f := mustTable(t, db, name).Flat()
		if err := f.Scan(func(i int, r table.Row, used bool) error {
			if used {
				out = append(out, fmt.Sprintf("%s[%d]=%v", name, i, r))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s rows=%d", name, f.NumRows()))
	}
	return out
}

// TestWriteRunMatchesOneAtATime: a run through ExecutePlanBatch answers
// and leaves both tables exactly as its statements executed one at a
// time, with one journal commit for the run.
func TestWriteRunMatchesOneAtATime(t *testing.T) {
	key := crypt.NewRandomKey()
	one, _ := runEngine(t, key, nil)
	var want []int
	for _, it := range writeRun(true) {
		res, err := one.ExecutePlan(it.Root, it.Binder)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, int(res.Rows[0][0].AsInt()))
	}
	db, _ := runEngine(t, key, nil)
	commits := db.WALStats().Commits
	res, errs := db.ExecutePlanBatch(autocommit(writeRun(true)))
	for i := range want {
		if errs[i] != nil {
			t.Fatalf("statement %d: %v", i, errs[i])
		}
		if got := int(res[i].Rows[0][0].AsInt()); got != want[i] {
			t.Fatalf("statement %d: %d affected in the run, %d one at a time", i, got, want[i])
		}
	}
	if got, w := runState(t, db), runState(t, one); rowsDiffer(got, w) {
		t.Fatalf("run left\n%v\none at a time\n%v", got, w)
	}
	if n := db.WALStats().Commits - commits; n != 1 {
		t.Fatalf("run made %d journal commits, want 1", n)
	}
}

// TestFaultInWriteRunContained sweeps one store fault over every access
// of a write run — its index work, its flat-only match passes, the
// growth copy and the batched flat passes. Every fault, in the flat
// tables or inside an index ORAM operation, is contained: the whole run
// answers CodeStoreFault and is a no-op, both tables and the journal
// keep their pre-run rows, the engine is not latched, and the retried
// run lands exactly as the fault-free one. A contained fault restores
// the flat tables slot for slot: each row in the slot it held before
// the run.
func TestFaultInWriteRunContained(t *testing.T) {
	for _, index := range []bool{false, true} {
		t.Run(fmt.Sprintf("index=%v", index), func(t *testing.T) {
			key := crypt.NewRandomKey()
			counter := faultstore.NewInjector(faultstore.Schedule{})
			ref, _ := runEngine(t, key, counter)
			from := counter.Accesses()
			if _, errs := ref.ExecutePlanBatch(autocommit(writeRun(index))); errs[0] != nil {
				t.Fatal(errs[0])
			}
			to := counter.Accesses()
			post := runState(t, ref)
			untouched, _ := runEngine(t, key, nil)
			pre, preSlots := runState(t, untouched), flatSlots(t, untouched)
			// The index run's ORAM work runs to thousands of accesses:
			// sample it, and sweep the flat-only run whole.
			stride := uint64(1)
			if index {
				stride = (to-from)/150 + 1
			}
			if testing.Short() {
				stride = (to-from)/40 + 1
			}
			for k := from; k < to; k += stride {
				inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
				db, path := runEngine(t, key, inj)
				_, errs := db.ExecutePlanBatch(autocommit(writeRun(index)))
				if db.Broken() != nil {
					t.Fatalf("fault at access %d latched the engine: %v", k, db.Broken())
				}
				for i, err := range errs {
					if oberr.CodeOf(err) != oberr.CodeStoreFault {
						t.Fatalf("fault at access %d: statement %d answered %v, want CodeStoreFault", k, i, err)
					}
				}
				if got := runState(t, db); rowsDiffer(got, pre) {
					t.Fatalf("fault at access %d changed the tables:\n got %v\nwant %v", k, got, pre)
				}
				if got := flatSlots(t, db); rowsDiffer(got, preSlots) {
					t.Fatalf("fault at access %d moved flat rows:\n got %v\nwant %v", k, got, preSlots)
				}
				rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4})
				if err := rec.Recover(openTestLog(t, path, key, wal.Options{})); err != nil {
					t.Fatal(err)
				}
				if got := runState(t, rec); rowsDiffer(got, pre) {
					t.Fatalf("fault at access %d: journal recovers\n %v\nwant %v", k, got, pre)
				}
				if _, errs := db.ExecutePlanBatch(autocommit(writeRun(index))); errs[0] != nil {
					t.Fatalf("retry after fault at access %d: %v", k, errs[0])
				}
				if got := runState(t, db); rowsDiffer(got, post) {
					t.Fatalf("retry after fault at access %d left\n %v\nwant %v", k, got, post)
				}
			}
			t.Logf("%d fault points", (to-from+stride-1)/stride)
		})
	}
}

// TestWriteRunOwnErrorIsolated: a statement that fails validation —
// here a multi-row INSERT whose second row is too wide, found before
// any of its rows applies — answers its own error, while the rest of
// the run lands as it would without it.
func TestWriteRunOwnErrorIsolated(t *testing.T) {
	key := crypt.NewRandomKey()
	db, _ := runEngine(t, key, nil)
	bad := PlanBinding{&plan.Insert{Table: "bb", Rows: [][]plan.Expr{
		{table.Row{table.Int(300), table.Str("fine")}},
		{table.Row{table.Int(301), table.Str("far too long for twelve")}},
	}}, funcBinder{}}
	items := append([]PlanBinding{bad}, writeRun(true)...)
	_, errs := db.ExecutePlanBatch(autocommit(items))
	if errs[0] == nil || oberr.CodeOf(errs[0]) != oberr.CodeUnknown {
		t.Fatalf("invalid insert answered %v, want its own untyped error", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Fatalf("statement %d failed beside the invalid one: %v", i+1, err)
		}
	}
	want, _ := runEngine(t, key, nil)
	if _, errs := want.ExecutePlanBatch(autocommit(writeRun(true))); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got, w := runState(t, db), runState(t, want); rowsDiffer(got, w) {
		t.Fatalf("run with an invalid statement left\n%v\nwant\n%v", got, w)
	}
	if _, ok, err := mustTable(t, db, "bb").Index().Lookup(300); err != nil || ok {
		t.Fatalf("undone insert left its index entry (found=%v, err=%v)", ok, err)
	}
}

func mustTable(t *testing.T, db *DB, name string) *Table {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestRolledBackRunKeepsEqualRows: when a run rolls back, a queued
// insert that never reached the flat table must not be undone there —
// its undo would remove an equal row the table held before. Here a
// transaction inserts an exact copy of an existing row, then fails
// validation, so the whole run rolls back with the copy still queued.
func TestRolledBackRunKeepsEqualRows(t *testing.T) {
	db, _ := runEngine(t, crypt.NewRandomKey(), nil)
	pre := runState(t, db)
	copyRow := table.Row{table.Int(3), table.Str("bf3")}
	bad := table.Row{table.Int(300), table.Str("far too long for twelve")}
	_, err := execGroup(db,
		PlanBinding{&plan.Insert{Table: "bf", Rows: [][]plan.Expr{{copyRow}}}, funcBinder{}},
		PlanBinding{&plan.Insert{Table: "bb", Rows: [][]plan.Expr{{bad}}}, funcBinder{}},
	)
	if err == nil {
		t.Fatal("transaction with an invalid row committed")
	}
	if got := runState(t, db); rowsDiffer(got, pre) {
		t.Fatalf("rolled-back run changed the tables:\n got %v\nwant %v", got, pre)
	}
}

// TestFaultedInsertRollbackKeepsEqualRow: a write whose flat pass
// faults must be undone by slot, never by removing rows equal to its
// images, which may be rows the table held before. Three statements on
// a flat-only table, with a journal attached and without one, each with
// one fault at every one of its store accesses, must fail retriably and
// leave the table's rows as they were:
//   - inserting (1, 'x') beside an equal row, through the constant-time
//     append's one block and through every block of an oblivious-insert
//     pass;
//   - an UPDATE setting (2, 'b') WHERE k = 1 beside an existing (2, 'b'),
//     and a DELETE WHERE k = 1, each through its match pass and its
//     read-modify-write pass: 3 × NumBlocks accesses, journal or not.
func TestFaultedInsertRollbackKeepsEqualRow(t *testing.T) {
	key := crypt.NewRandomKey()
	a, b, x := table.Row{table.Int(1), table.Str("a")}, table.Row{table.Int(2), table.Str("b")}, table.Row{table.Int(1), table.Str("x")}
	insertX := func(db *DB) error { return db.Insert("eq", x) }
	updateToB := func(db *DB) error {
		_, err := db.Update("eq", func(r table.Row) bool { return r[0].AsInt() == 1 },
			func(table.Row) table.Row { return b.Clone() }, nil)
		return err
	}
	deleteA := func(db *DB) error {
		_, err := db.Delete("eq", func(r table.Row) bool { return r[0].AsInt() == 1 }, nil)
		return err
	}
	for _, tc := range []struct {
		name      string
		oblivious bool
		seed      []table.Row
		stmt      func(*DB) error
		passes    uint64 // the statement's store accesses, in blocks
	}{
		{"oblivious=false", false, []table.Row{x}, insertX, 0},
		{"oblivious=true", true, []table.Row{x}, insertX, 2},
		{"update", false, []table.Row{a, b}, updateToB, 3},
		{"delete", false, []table.Row{a, b}, deleteA, 3},
		{"no journal/oblivious=false", false, []table.Row{x}, insertX, 0},
		{"no journal/oblivious=true", true, []table.Row{x}, insertX, 2},
		{"no journal/update", false, []table.Row{a, b}, updateToB, 3},
		{"no journal/delete", false, []table.Row{a, b}, deleteA, 3},
	} {
		journal := !strings.HasPrefix(tc.name, "no journal/")
		t.Run(tc.name, func(t *testing.T) {
			engine := func(inj *faultstore.Injector) *DB {
				cfg := Config{Key: key, Seed: 7, RowsPerBlock: 4}
				if inj != nil {
					cfg.Fault = inj
				}
				db := MustOpen(cfg)
				if _, err := db.CreateTable("eq", walTestSchema(), TableOptions{Capacity: 8, ObliviousInserts: tc.oblivious}); err != nil {
					t.Fatal(err)
				}
				if err := db.Insert("eq", tc.seed...); err != nil {
					t.Fatal(err)
				}
				if journal {
					if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "eq.wal"), key, wal.Options{})); err != nil {
						t.Fatal(err)
					}
				}
				return db
			}
			counter := faultstore.NewInjector(faultstore.Schedule{})
			db := engine(counter)
			from := counter.Accesses()
			if err := tc.stmt(db); err != nil {
				t.Fatal(err)
			}
			to := counter.Accesses()
			want := tc.passes * uint64(mustTable(t, db, "eq").Flat().NumBlocks())
			if tc.passes == 0 {
				want = 2
			}
			if to-from != want {
				t.Fatalf("statement made %d store accesses, want %d", to-from, want)
			}
			rows := snapshotRows(t, engine(nil), "eq")
			for k := from; k < to; k++ {
				db := engine(faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1}))
				if err := tc.stmt(db); oberr.CodeOf(err) != oberr.CodeStoreFault {
					t.Fatalf("fault at access %d: statement answered %v, want CodeStoreFault", k, err)
				}
				if got := snapshotRows(t, db, "eq"); rowsDiffer(got, rows) {
					t.Fatalf("fault at access %d left %v, want %v", k, got, rows)
				}
			}
		})
	}
}

// TestFaultedInsertRollbackTraceOblivious pins the trace of an insert's
// undo after its pass faults. An earlier DELETE leaves the table's one
// hole in block 0 in one run and in block 3 in the other, so a fault at
// block 2 of the INSERT's pass finds the insert landed in the first run
// and not in the second. Both rollbacks must make the same accesses:
// whether an insert landed may change only what the restore writes.
func TestFaultedInsertRollbackTraceOblivious(t *testing.T) {
	key := crypt.NewRandomKey()
	run := func(order []int64, inj *faultstore.Injector) (*DB, *trace.Tracer, uint64, error) {
		tr := trace.New()
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 1, Tracer: tr, Fault: inj})
		if _, err := db.CreateTable("h", walTestSchema(), TableOptions{Capacity: 8}); err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			if err := db.Insert("h", table.Row{table.Int(k), table.Str("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "h.wal"), key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
		if n, err := db.Delete("h", func(r table.Row) bool { return r[0].AsInt() == 1 }, nil); err != nil || n != 1 {
			t.Fatalf("delete: %d rows, %v", n, err)
		}
		from := inj.Accesses()
		return db, tr, from, db.Insert("h", table.Row{table.Int(9), table.Str("y")})
	}
	holeFirst, holeLater := []int64{1, 2, 3, 4, 5, 6}, []int64{2, 3, 4, 1, 5, 6}
	counter := faultstore.NewInjector(faultstore.Schedule{})
	db, _, from, err := run(holeFirst, counter)
	if err != nil {
		t.Fatal(err)
	}
	blocks := uint64(mustTable(t, db, "h").Flat().NumBlocks())
	if n := counter.Accesses() - from; blocks != 8 || n != 2*blocks {
		t.Fatalf("insert made %d accesses over %d blocks, want one pass over 8", n, blocks)
	}
	failAt := from + 4 // the read of block 2
	var prints [2][32]byte
	for i, order := range [][]int64{holeFirst, holeLater} {
		db, tr, _, err := run(order, faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{failAt}, MaxFaults: 1}))
		if oberr.CodeOf(err) != oberr.CodeStoreFault {
			t.Fatalf("order %v: insert answered %v, want CodeStoreFault", order, err)
		}
		prints[i] = tr.Fingerprint()
		if got := snapshotRows(t, db, "h"); len(got) != 5 {
			t.Fatalf("order %v: rollback left %v, want the 5 rows the DELETE kept", order, got)
		}
	}
	if prints[0] != prints[1] {
		t.Fatal("an insert's undo made different accesses depending on whether the faulted pass had placed it")
	}
}

// TestRollbackOnePassPerTable pins the cost of a rollback. On a
// journaled table of 128 rows at R = 4 — flat, indexed, or both, keyed
// on id — an UPDATE of k rows and a BulkLoad of 128, each faulted at
// its last store access, roll back in 2 × NumBlocks accesses for the
// flat table, one Restore pass, plus the index's Restore: Σ targets
// ORAM accesses, the padded targets of the index operations the
// statement began (AccessesPerOp each, amortized), and the rest of a
// path read the fault cut short. The pin is exact in path reads: every
// ORAM access reads one slot on each of the u uncached levels of its
// path, and evictions and reshuffles write every slot they read, so a
// rollback's reads minus its writes are u × Σ targets plus the resumed
// reads, at most u, and none when the fault hit the flat pass. A
// BulkLoad found the table empty, so its index rollback makes no access.
func TestRollbackOnePassPerTable(t *testing.T) {
	key := crypt.NewRandomKey()
	engine := func(inj *armedFault, kind StorageKind, load bool) (*DB, *Table) {
		inj.arm(-1)
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Fault: inj})
		tab, err := db.CreateTable("p", walTestSchema(), TableOptions{Kind: kind, KeyColumn: "id", Capacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		if load {
			if err := db.BulkLoad("p", passRows(128)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "p.wal"), key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	update := func(k int64) func(*DB) error {
		return func(db *DB) error {
			_, err := db.Update("p", func(r table.Row) bool { return r[0].AsInt() < k },
				func(r table.Row) table.Row { r[1] = table.Str("upd"); return r }, nil)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		kind StorageKind
		k    int64 // rows updated; 0 for the BulkLoad
	}{
		{"update/k=1", KindFlat, 1},
		{"update/k=16", KindFlat, 16},
		{"update/k=64", KindFlat, 64},
		{"bulkload", KindFlat, 0},
		{"both/update/k=1", KindBoth, 1},
		{"both/update/k=16", KindBoth, 16},
		{"both/update/k=64", KindBoth, 64},
		{"both/bulkload", KindBoth, 0},
		{"indexed/update/k=1", KindIndexed, 1},
		{"indexed/update/k=16", KindIndexed, 16},
		{"indexed/bulkload", KindIndexed, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stmt := update(tc.k)
			if tc.k == 0 {
				stmt = func(db *DB) error { return db.BulkLoad("p", passRows(128)) }
			}
			inj := new(armedFault)
			db, _ := engine(inj, tc.kind, tc.k > 0)
			inj.arm(-1)
			if err := stmt(db); err != nil {
				t.Fatal(err)
			}
			own := inj.n.Load()
			var blocks, u, sum, perOp int64
			if tab := mustTable(t, db, "p"); tab.Flat() != nil {
				blocks = int64(tab.Flat().NumBlocks())
			}
			if _, tab := engine(inj, tc.kind, tc.k > 0); tab.Index() != nil && tc.k > 0 {
				idx := tab.Index()
				// A point lookup at height h makes h+2 ORAM accesses.
				h := int64(idx.Height())
				perOp = int64(idx.AccessesPerOp())
				inj.arm(-1)
				if _, _, err := idx.Lookup(0); err != nil {
					t.Fatal(err)
				}
				u = (inj.n.Load() - 2*inj.writes.Load()) / (h + 2)
				// Each row is one DeleteEntry, padded to 5h+4, and one
				// Insert, padded to 3(h+1)+3: indexed's targets.
				sum = tc.k * (5*h + 4 + 3*(h+1) + 3)
			}
			db, _ = engine(inj, tc.kind, tc.k > 0)
			inj.arm(own - 1)
			if err := stmt(db); oberr.CodeOf(err) != oberr.CodeStoreFault {
				t.Fatalf("faulted statement answered %v, want CodeStoreFault", err)
			}
			n, paths := inj.n.Load(), inj.n.Load()-2*inj.writes.Load()
			t.Logf("rollback: %d accesses (2 × %d blocks + %d ORAM accesses × %d per op), %d path reads over %d levels",
				n, blocks, sum, perOp, paths, u)
			if resumed := paths - u*sum; resumed < 0 || resumed > u || (tc.kind == KindBoth && resumed != 0) {
				t.Fatalf("rollback made %d path reads, want %d × %d targets plus at most %d resumed", paths, u, sum, u)
			}
			if tc.k == 0 && n != 2*blocks {
				t.Fatalf("BulkLoad rollback made %d store accesses, want %d (one flat pass, no index access)", n, 2*blocks)
			}
			if tc.kind == KindFlat && n != 2*blocks {
				t.Fatalf("rollback made %d store accesses, want %d (one pass over %d blocks)", n, 2*blocks, blocks)
			}
			ref, _ := engine(new(armedFault), tc.kind, tc.k > 0)
			if got, want := snapshotRows(t, db, "p"), snapshotRows(t, ref, "p"); rowsDiffer(got, want) {
				t.Fatalf("rollback left %d rows, want %d", len(got), len(want))
			}
		})
	}
}

// passRows makes n rows keyed 0..n-1.
func passRows(n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("p%d", i))}
	}
	return rows
}
