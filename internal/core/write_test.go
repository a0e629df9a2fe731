package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"oblidb/internal/baseline"
	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/plan"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

func dupSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindInt},
	)
}

// dupRows is a table whose key 7 repeats: (7,0) … (7,3) among single
// rows of other keys.
func dupRows() []table.Row {
	rows := []table.Row{{table.Int(5), table.Int(0)}}
	for v := int64(0); v < 4; v++ {
		rows = append(rows, table.Row{table.Int(7), table.Int(v)})
	}
	return append(rows, table.Row{table.Int(9), table.Int(0)})
}

// dupWrites are the keyed writes over the repeated key: each names one
// row among the four sharing key 7. apply runs a write on the engine;
// plain applies it to the reference table.
var dupWrites = []struct {
	name  string
	apply func(db *DB) (int, error)
	plain func(r table.Row) (table.Row, bool) // new row, keep
}{
	{"delete v=2", func(db *DB) (int, error) {
		return db.Delete("d", func(r table.Row) bool { return r[1].AsInt() == 2 }, Point(7))
	}, func(r table.Row) (table.Row, bool) {
		return r, !(r[0].AsInt() == 7 && r[1].AsInt() == 2)
	}},
	{"update v=3 to 30", func(db *DB) (int, error) {
		return db.Update("d", func(r table.Row) bool { return r[1].AsInt() == 3 },
			func(r table.Row) table.Row { r[1] = table.Int(30); return r }, Point(7))
	}, func(r table.Row) (table.Row, bool) {
		if r[0].AsInt() == 7 && r[1].AsInt() == 3 {
			return table.Row{r[0], table.Int(30)}, true
		}
		return r, true
	}},
}

// dupEngine opens an engine with the duplicate-key table loaded,
// journaled when journal is set.
func dupEngine(t *testing.T, kind StorageKind, journal bool, key []byte, inj *faultstore.Injector) (*DB, *Table) {
	t.Helper()
	cfg := Config{Key: key, Seed: 3, RowsPerBlock: 2}
	if inj != nil {
		cfg.Fault = inj
	}
	db := MustOpen(cfg)
	tab, err := db.CreateTable("d", dupSchema(), TableOptions{Kind: kind, KeyColumn: "k", Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("d", dupRows()...); err != nil {
		t.Fatal(err)
	}
	if journal {
		if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "d.wal"), key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// render sorts rows into a canonical string.
func render(rows []table.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// checkRepresentations compares every representation of tab, and the
// keyed read of key 7, against the reference rows.
func checkRepresentations(t *testing.T, db *DB, tab *Table, want []table.Row, ctx string) {
	t.Helper()
	ref := baseline.NewPlainTable(dupSchema())
	ref.Insert(want...)
	if tab.Index() != nil {
		got, err := tab.Index().Rows()
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(ref.Rows) {
			t.Errorf("%s: index holds %s, want %s", ctx, render(got), render(ref.Rows))
		}
	}
	if tab.Flat() != nil {
		got, err := tab.Flat().Rows()
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(ref.Rows) {
			t.Errorf("%s: flat table holds %s, want %s", ctx, render(got), render(ref.Rows))
		}
	}
	res, err := db.Select("d", nil, SelectOptions{KeyRange: Point(7)})
	if err != nil {
		t.Fatal(err)
	}
	wantKeyed := ref.Select(func(r table.Row) bool { return r[0].AsInt() == 7 })
	if render(res.Rows) != render(wantKeyed) {
		t.Errorf("%s: k = 7 reads %s, want %s", ctx, render(res.Rows), render(wantKeyed))
	}
}

// TestDuplicateKeyWritesRemoveExactEntry runs keyed DELETE and UPDATE
// statements that name one of several rows sharing a key, on every
// indexed storage kind with and without a journal. The index must lose
// the row the statement matched — not the first row with its key — so
// the index, the flat table and a keyed read all agree with the plain
// reference.
func TestDuplicateKeyWritesRemoveExactEntry(t *testing.T) {
	key := crypt.NewRandomKey()
	for _, kind := range []StorageKind{KindBoth, KindIndexed} {
		for _, journal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/journal=%v", kind, journal), func(t *testing.T) {
				db, tab := dupEngine(t, kind, journal, key, nil)
				want := dupRows()
				for _, w := range dupWrites {
					n, err := w.apply(db)
					if err != nil {
						t.Fatalf("%s: %v", w.name, err)
					}
					if n != 1 {
						t.Errorf("%s: affected %d rows, want 1", w.name, n)
					}
					var next []table.Row
					for _, r := range want {
						if nr, keep := w.plain(r); keep {
							next = append(next, nr)
						}
					}
					want = next
					checkRepresentations(t, db, tab, want, w.name)
				}
			})
		}
	}
}

// TestDuplicateKeyFaultedRollback rolls back a transaction whose keyed
// UPDATE over a repeated key had applied when a later statement hit a
// store fault — one fault at every access of that statement, which
// writes a flat-only table. The undo must find each rewritten row among
// those sharing its key, so the table returns to exactly its starting
// rows, and the retried transaction then lands.
func TestDuplicateKeyFaultedRollback(t *testing.T) {
	key := crypt.NewRandomKey()
	pred := table.Pred(func(r table.Row) bool { return r[1].AsInt() == 3 })
	upd := table.Updater(func(r table.Row) table.Row { r[1] = table.Int(30); return r })
	after := dupRows()
	after[4] = table.Row{table.Int(7), table.Int(30)}
	tx := []PlanBinding{
		{&plan.Update{Table: "d", Sets: []plan.SetExpr{{Value: upd}}, Cond: pred, Key: &plan.KeyRange{Lo: 7, Hi: 7}}, funcBinder{}},
		{&plan.Delete{Table: "f"}, funcBinder{}},
	}
	engine := func(kind StorageKind, inj *faultstore.Injector) (*DB, *Table) {
		db, tab := dupEngine(t, kind, true, key, inj)
		if _, err := db.CreateTable("f", dupSchema(), TableOptions{Capacity: 16}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("f", dupRows()...); err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	for _, kind := range []StorageKind{KindBoth, KindIndexed} {
		t.Run(kind.String(), func(t *testing.T) {
			// The fault-free run bounds the accesses of the flat statement.
			counter := faultstore.NewInjector(faultstore.Schedule{})
			db, _ := engine(kind, counter)
			if _, err := db.Update("d", pred, upd, Point(7)); err != nil {
				t.Fatal(err)
			}
			from := counter.Accesses()
			if _, err := db.Delete("f", nil, nil); err != nil {
				t.Fatal(err)
			}
			to := counter.Accesses()
			for at := from; at < to; at++ {
				inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{at}, MaxFaults: 1})
				db, tab := engine(kind, inj)
				_, err := execGroup(db, tx...)
				if err == nil || !oberr.Retriable(err) {
					t.Fatalf("fault at access %d: got %v, want a retriable error", at, err)
				}
				checkRepresentations(t, db, tab, dupRows(), fmt.Sprintf("rolled back at access %d", at))
				if _, err := execGroup(db, tx...); err != nil {
					t.Fatalf("retry after fault at access %d: %v", at, err)
				}
				checkRepresentations(t, db, tab, after, fmt.Sprintf("retried after access %d", at))
			}
		})
	}
}

// TestJournaledKeyedDeleteOneFlatPass pins the write path's one match
// pass: on a journaled flat-and-index table, a keyed DELETE finds its
// rows through the index, so the flat table is read only by the delete
// pass itself — fewer than two flat passes of opened blocks.
func TestJournaledKeyedDeleteOneFlatPass(t *testing.T) {
	key := crypt.NewRandomKey()
	db := MustOpen(Config{Key: key, RowsPerBlock: 1})
	tab, err := db.CreateTable("p", dupSchema(), TableOptions{Kind: KindBoth, KeyColumn: "k", Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 1024)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Int(int64(i % 7))}
	}
	if err := db.BulkLoad("p", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "p.wal"), key, wal.Options{})); err != nil {
		t.Fatal(err)
	}
	before := db.IOStats().BlocksOpened
	n, err := db.Delete("p", nil, Point(500))
	if err != nil || n != 1 {
		t.Fatalf("keyed delete: n=%d err=%v", n, err)
	}
	opened := db.IOStats().BlocksOpened - before
	if limit := uint64(2 * tab.Flat().NumBlocks()); opened >= limit {
		t.Fatalf("keyed delete opened %d blocks, want fewer than two flat passes (%d)", opened, limit)
	}
}

// TestJournaledKeyedUpdateOneFlatPass is the UPDATE twin of
// TestJournaledKeyedDeleteOneFlatPass: the write path validated the
// post-image of every row its index match found, so the flat table is
// rewritten in one pass with no validation scan of its own — fewer than
// two flat passes of opened blocks.
func TestJournaledKeyedUpdateOneFlatPass(t *testing.T) {
	key := crypt.NewRandomKey()
	db := MustOpen(Config{Key: key, RowsPerBlock: 1})
	tab, err := db.CreateTable("p", dupSchema(), TableOptions{Kind: KindBoth, KeyColumn: "k", Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 1024)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Int(int64(i % 7))}
	}
	if err := db.BulkLoad("p", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "p.wal"), key, wal.Options{})); err != nil {
		t.Fatal(err)
	}
	before := db.IOStats().BlocksOpened
	upd := table.Updater(func(r table.Row) table.Row { r[1] = table.Int(99); return r })
	n, err := db.Update("p", nil, upd, Point(500))
	if err != nil || n != 1 {
		t.Fatalf("keyed update: n=%d err=%v", n, err)
	}
	opened := db.IOStats().BlocksOpened - before
	if limit := uint64(2 * tab.Flat().NumBlocks()); opened >= limit {
		t.Fatalf("keyed update opened %d blocks, want fewer than two flat passes (%d)", opened, limit)
	}
}
