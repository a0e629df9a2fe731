package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

// sweepRows is a 26-row table whose key 7 repeats four times, (7, 0)
// … (7, 3), beside one row for each other key in 0…22.
func sweepRows() []table.Row {
	var rows []table.Row
	for k := int64(0); k <= 22; k++ {
		if k != 7 {
			rows = append(rows, table.Row{table.Int(k), table.Int(0)})
		}
	}
	for v := int64(0); v < 4; v++ {
		rows = append(rows, table.Row{table.Int(7), table.Int(v)})
	}
	return rows
}

// sweepWrites are the statements the containment sweep faults: a keyed
// DELETE and a keyed UPDATE of one row among those sharing key 7, and
// an UPDATE that turns (1, 0) into a copy of the existing row (2, 0).
var sweepWrites = []struct {
	name string
	run  func(db *DB) error
}{
	{"keyed delete", func(db *DB) error {
		_, err := db.Delete("d", func(r table.Row) bool { return r[1].AsInt() == 2 }, Point(7))
		return err
	}},
	{"keyed update", func(db *DB) error {
		_, err := db.Update("d", func(r table.Row) bool { return r[1].AsInt() == 3 },
			func(r table.Row) table.Row { r[1] = table.Int(30); return r }, Point(7))
		return err
	}},
	{"update into an equal row", func(db *DB) error {
		_, err := db.Update("d", nil, func(table.Row) table.Row { return table.Row{table.Int(2), table.Int(0)} }, Point(1))
		return err
	}},
}

// armedFault fails the one store access it is armed for, counted from
// its arming (none when negative). n and writes count the accesses, and
// the writes among them, since the arming, and once it has fired, since
// the fault.
type armedFault struct {
	at, n, writes atomic.Int64
	fired         atomic.Bool
}

func (a *armedFault) arm(at int64) {
	a.at.Store(at)
	a.n.Store(0)
	a.writes.Store(0)
	a.fired.Store(false)
}

func (a *armedFault) Access(write bool) error {
	if a.n.Add(1)-1 == a.at.Load() && !a.fired.Load() {
		a.fired.Store(true)
		a.n.Store(0)
		a.writes.Store(0)
		return oberr.Wrapf(oberr.CodeStoreFault, faultstore.ErrInjected, "armed fault")
	}
	if write {
		a.writes.Add(1)
	}
	return nil
}

// sweepEngine opens an engine holding sweepRows in a table of the given
// kind keyed on k, with a journal attached when journal is set.
func sweepEngine(t *testing.T, kind StorageKind, journal bool, key []byte, inj *armedFault) (*DB, *Table) {
	t.Helper()
	inj.arm(-1)
	db := MustOpen(Config{Key: key, Seed: 3, RowsPerBlock: 2, Fault: inj})
	tab, err := db.CreateTable("d", dupSchema(), TableOptions{Kind: kind, KeyColumn: "k", Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("d", sweepRows()); err != nil {
		t.Fatal(err)
	}
	if journal {
		if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "d.wal"), key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// exactState renders what a rollback must restore exactly: the flat
// table's (slot, row) pairs and row count, and the index's (rowID, row)
// pairs as its raw scan reports them, and its row count.
func exactState(t *testing.T, tab *Table) string {
	t.Helper()
	var flat, index []string
	if f := tab.Flat(); f != nil {
		if err := f.Scan(func(i int, r table.Row, used bool) error {
			if used {
				flat = append(flat, fmt.Sprintf("%d:%v", i, r))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		flat = append(flat, fmt.Sprintf("rows %d", f.NumRows()))
	}
	if err := tab.Index().ScanRaw(func(id uint32, r table.Row) error {
		index = append(index, fmt.Sprintf("%d:%v", id, r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(index)
	index = append(index, fmt.Sprintf("rows %d", tab.Index().NumRows()))
	return strings.Join(flat, " ") + " | " + strings.Join(index, " ")
}

// TestFaultedIndexWriteRollbackExact is the index containment sweep:
// each sweepWrites statement, on a KindBoth and a KindIndexed table,
// with a journal attached and without one, runs with one store fault at
// its first access, then its second, and so on until it runs through,
// each time on the engine the last rollback left. Every faulted run
// must answer CodeStoreFault without latching the engine, and leave the
// flat (slot, row) pairs, the index (rowID, row) pairs and both row
// counts exactly as they were before the first; the run that goes
// through must leave them exactly as on an engine that never saw a
// fault. Every write is a tracked write run, so the journal changes no
// store access: a statement has as many fault points without one.
func TestFaultedIndexWriteRollbackExact(t *testing.T) {
	key := crypt.NewRandomKey()
	points := make(map[string]int64) // each journaled statement's fault points
	for _, c := range []struct {
		kind    StorageKind
		journal bool
	}{{KindBoth, true}, {KindIndexed, true}, {KindBoth, false}, {KindIndexed, false}} {
		kind := c.kind
		for _, w := range sweepWrites {
			id := kind.String() + "/" + w.name
			name := id
			if !c.journal {
				name = kind.String() + "/no journal/" + w.name
			}
			t.Run(name, func(t *testing.T) {
				inj := new(armedFault)
				db, tab := sweepEngine(t, kind, c.journal, key, inj)
				want := exactState(t, tab)
				for at := int64(0); ; at++ {
					inj.arm(at)
					err := w.run(db)
					fired := inj.fired.Load()
					inj.arm(-1)
					if !fired {
						if err != nil || at < 100 {
							t.Fatalf("unfaulted run after %d faulted ones: %v", at, err)
						}
						ref, refTab := sweepEngine(t, kind, c.journal, key, new(armedFault))
						if err := w.run(ref); err != nil {
							t.Fatal(err)
						}
						if got, want := exactState(t, tab), exactState(t, refTab); got != want {
							t.Fatalf("run after %d faulted ones left\n%s\nwant\n%s", at, got, want)
						}
						if c.journal {
							points[id] = at
						} else if n, ok := points[id]; ok && at != n {
							t.Fatalf("%d fault points without a journal, %d with one", at, n)
						}
						break
					}
					if oberr.CodeOf(err) != oberr.CodeStoreFault {
						t.Fatalf("fault at access %d: statement answered %v, want CodeStoreFault", at, err)
					}
					if err := db.Broken(); err != nil {
						t.Fatalf("fault at access %d latched the engine: %v", at, err)
					}
					if got := exactState(t, tab); got != want {
						t.Fatalf("fault at access %d left\n%s\nwant\n%s", at, got, want)
					}
				}
			})
		}
	}
}

// checkLoaded requires tab to hold exactly rows, each under a distinct
// key: every key's point lookup in the index finds its row, the index's
// raw scan and the flat table hold the rows and nothing else.
func checkLoaded(t *testing.T, tab *Table, rows []table.Row, ctx string) {
	t.Helper()
	var want []string
	for _, r := range rows {
		want = append(want, fmt.Sprint(r))
	}
	sort.Strings(want)
	check := func(what string, got []string) {
		t.Helper()
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: %s holds %v, want %v", ctx, what, got, want)
		}
	}
	if idx := tab.Index(); idx != nil {
		var got []string
		for _, r := range rows {
			row, ok, err := idx.Lookup(r[0].AsInt())
			if err != nil || !ok {
				t.Fatalf("%s: lookup of %v: found %v, %v", ctx, r[0], ok, err)
			}
			got = append(got, fmt.Sprint(row))
		}
		check("the index's point lookups", got)
		got = nil
		if err := idx.ScanRaw(func(_ uint32, r table.Row) error {
			got = append(got, fmt.Sprint(r))
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		check("the index's raw scan", got)
	}
	if f := tab.Flat(); f != nil {
		rs, err := f.Rows()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rs {
			got = append(got, fmt.Sprint(r))
		}
		check("the flat table", got)
	}
}

// TestBulkLoadAfterUseAndFaultedLoad loads a table that is empty but
// not fresh, on each storage kind: once after 40 inserts, 200 point
// reads and a DELETE of every row, and once as the retry of a journaled
// BulkLoad that a store fault rolled back, for a sample of its fault
// points. The load must hold exactly its rows: the index reuses an ORAM
// that has served accesses, and the flat table an append cursor the
// DELETE moved.
func TestBulkLoadAfterUseAndFaultedLoad(t *testing.T) {
	key := crypt.NewRandomKey()
	load := make([]table.Row, 40)
	for i := range load {
		load[i] = table.Row{table.Int(int64(100 + i)), table.Int(int64(i))}
	}
	for _, kind := range []StorageKind{KindIndexed, KindBoth, KindFlat} {
		engine := func(inj *armedFault) (*DB, *Table) {
			inj.arm(-1)
			db := MustOpen(Config{Key: key, Seed: 3, Fault: inj})
			tab, err := db.CreateTable("b", dupSchema(), TableOptions{Kind: kind, KeyColumn: "k", Capacity: 64})
			if err != nil {
				t.Fatal(err)
			}
			return db, tab
		}
		t.Run(kind.String()+"/after delete", func(t *testing.T) {
			db, tab := engine(new(armedFault))
			for i := int64(0); i < 40; i++ {
				if err := db.Insert("b", table.Row{table.Int(i), table.Int(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(0); i < 200; i++ {
				if _, err := db.Select("b", nil, SelectOptions{KeyRange: Point(i % 40)}); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := db.Delete("b", nil, nil); err != nil || n != 40 {
				t.Fatalf("delete: %d rows, %v", n, err)
			}
			if err := db.BulkLoad("b", load); err != nil {
				t.Fatal(err)
			}
			checkLoaded(t, tab, load, "load after delete")
		})
		t.Run(kind.String()+"/retried after a fault", func(t *testing.T) {
			inj := new(armedFault)
			db, _ := engine(inj)
			if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "b.wal"), key, wal.Options{})); err != nil {
				t.Fatal(err)
			}
			inj.arm(-1)
			if err := db.BulkLoad("b", load); err != nil {
				t.Fatal(err)
			}
			n := inj.n.Load()
			for at := int64(0); at < n; at += n/12 + 1 {
				db, tab := engine(inj)
				if err := db.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "b.wal"), key, wal.Options{})); err != nil {
					t.Fatal(err)
				}
				inj.arm(at)
				if err := db.BulkLoad("b", load); oberr.CodeOf(err) != oberr.CodeStoreFault || db.Broken() != nil {
					t.Fatalf("fault at access %d: load answered %v, engine %v", at, err, db.Broken())
				}
				if err := db.BulkLoad("b", load); err != nil {
					t.Fatalf("retry after a fault at access %d: %v", at, err)
				}
				checkLoaded(t, tab, load, fmt.Sprintf("retry after a fault at access %d", at))
			}
		})
	}
}
