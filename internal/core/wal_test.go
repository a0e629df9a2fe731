package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/oberr"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

func walTestSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "name", Kind: table.KindString, Width: 12},
	)
}

func openTestLog(t *testing.T, path string, key []byte, opts wal.Options) *wal.Log {
	t.Helper()
	l, err := wal.Open(path, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// snapshotRows reads every live row of a table as a sorted multiset of
// canonical strings, for cross-engine comparison.
func snapshotRows(t *testing.T, db *DB, name string) []string {
	t.Helper()
	res, err := db.Select(name, table.All, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func rowsDiffer(a, b []string) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// seededWorkload drives one engine through DDL and every mutation kind.
// base varies the values (never the shape) between runs.
func seededWorkload(t *testing.T, db *DB, base int64) {
	t.Helper()
	s := walTestSchema()
	if _, err := db.CreateTable("people", s, TableOptions{
		Kind: KindBoth, KeyColumn: "id", Capacity: 64}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := db.Insert("people", table.Row{table.Int(base + i),
			table.Str(fmt.Sprintf("p%d", base+i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite a slice of them.
	if _, err := db.Update("people",
		func(r table.Row) bool { return r[0].AsInt() < base+5 },
		func(r table.Row) table.Row {
			return table.Row{r[0], table.Str("renamed")}
		}, nil); err != nil {
		t.Fatal(err)
	}
	// Remove a different slice.
	if _, err := db.Delete("people",
		func(r table.Row) bool { return r[0].AsInt() >= base+15 }, nil); err != nil {
		t.Fatal(err)
	}
	// DDL after DML (the seed's WAL rejected this), plus a dropped table
	// so recovery replays a drop too.
	if _, err := db.CreateTable("scratch", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("scratch", table.Row{table.Int(base), table.Str("gone")}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("scratch"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("extra", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("extra", table.Row{table.Int(base + 100), table.Str("kept")}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryMatchesUninterrupted is the end-to-end durability
// contract: run a workload under a journal, "crash" (abandon the engine
// without any shutdown), recover a fresh engine from the same file, and
// compare every table's row multiset against an identical engine that
// never crashed.
func TestCrashRecoveryMatchesUninterrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()

	crashed := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := crashed.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	seededWorkload(t, crashed, 1000)
	// Crash: no Detach, no Close, no checkpoint. The file alone must
	// carry the state.
	l.Close()

	reference := MustOpen(Config{})
	seededWorkload(t, reference, 1000)

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}

	wantTables := []string{"extra", "people"}
	gotTables := recovered.Tables()
	sort.Strings(gotTables)
	if rowsDiffer(gotTables, wantTables) {
		t.Fatalf("recovered tables = %v, want %v", gotTables, wantTables)
	}
	for _, name := range wantTables {
		got := snapshotRows(t, recovered, name)
		want := snapshotRows(t, reference, name)
		if rowsDiffer(got, want) {
			t.Fatalf("recovered %q = %v, want %v", name, got, want)
		}
	}

	// The recovered engine keeps working — including through the index
	// the recovery rebuilt.
	res, err := recovered.Select("people", table.All,
		SelectOptions{KeyRange: &KeyRange{Lo: 1005, Hi: 1009}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("indexed select over recovered table returned %d rows", len(res.Rows))
	}
}

// TestRecoveredEngineContinuesJournaling closes the loop: recover, attach
// the same log, mutate more, crash again, recover again.
func TestRecoveredEngineContinuesJournaling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()

	db1 := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := db1.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := db1.CreateTable("t", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db1.Insert("t", table.Row{table.Int(1), table.Str("one")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	db2 := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := db2.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if err := db2.AttachWAL(l2); err != nil {
		t.Fatal(err)
	}
	if err := db2.Insert("t", table.Row{table.Int(2), table.Str("two")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	db3 := MustOpen(Config{})
	l3 := openTestLog(t, path, key, wal.Options{})
	if err := db3.Recover(l3); err != nil {
		t.Fatal(err)
	}
	got := snapshotRows(t, db3, "t")
	if len(got) != 2 {
		t.Fatalf("after recover-attach-recover: rows = %v", got)
	}
}

// TestDDLAfterDMLJournaled pins the first fixed bug: the seed's WAL
// fixed its record size at the first row append and rejected any CREATE
// TABLE after it.
func TestDDLAfterDMLJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := db.CreateTable("first", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("first", table.Row{table.Int(1), table.Str("a")}); err != nil {
		t.Fatal(err)
	}
	// A second table, with a *different* row size, after the first
	// journaled mutation.
	wide := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindString, Width: 40},
	)
	if _, err := db.CreateTable("second", wide, TableOptions{Capacity: 16}); err != nil {
		t.Fatalf("DDL after DML rejected: %v", err)
	}
	if err := db.Insert("second", table.Row{table.Int(2), table.Str("wide row")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotRows(t, recovered, "first"); len(got) != 1 {
		t.Fatalf("first = %v", got)
	}
	if got := snapshotRows(t, recovered, "second"); len(got) != 1 {
		t.Fatalf("second = %v", got)
	}
}

// TestFailingUpdaterJournalsNothing pins the second fixed bug: the seed
// journaled each post-image *before* writing it, so an updater that
// failed partway left the log ahead of the table. Now the whole pass is
// validated up front: nothing applies, nothing is journaled.
func TestFailingUpdaterJournalsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := db.CreateTable("t", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := db.Insert("t", table.Row{table.Int(i), table.Str("ok")}); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotRows(t, db, "t")
	entriesBefore := l.Len()

	// The post-image for id 4 is invalid (string wider than the column),
	// and with ascending scan order earlier rows would already have been
	// rewritten by the time the bad one surfaces — were the pass not
	// validated up front.
	_, err := db.Update("t", table.All, func(r table.Row) table.Row {
		if r[0].AsInt() == 4 {
			return table.Row{r[0], table.Str("this string does not fit in twelve")}
		}
		return table.Row{r[0], table.Str("rewritten")}
	}, nil)
	if err == nil {
		t.Fatal("invalid post-image did not fail the update")
	}
	if got := snapshotRows(t, db, "t"); rowsDiffer(got, before) {
		t.Fatalf("failed update left ghosts in memory: %v != %v", got, before)
	}
	if l.Len() != entriesBefore || l.Staged() != 0 {
		t.Fatalf("failed update left journal records: Len %d->%d, %d staged",
			entriesBefore, l.Len(), l.Staged())
	}
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotRows(t, recovered, "t"); rowsDiffer(got, before) {
		t.Fatalf("failed update leaked into recovery: %v != %v", got, before)
	}
}

// TestFailedInsertRolledBack drives the single-statement rollback path:
// a batch insert whose later row is invalid must undo its earlier rows
// both in memory and in the journal.
func TestFailedInsertRolledBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := db.CreateTable("t", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("t",
		table.Row{table.Int(1), table.Str("good")},
		table.Row{table.Int(2), table.Str("also fine")},
		table.Row{table.Int(3), table.Str("much too long for the column")},
	)
	if err == nil {
		t.Fatal("invalid row did not fail the insert")
	}
	if got := snapshotRows(t, db, "t"); len(got) != 0 {
		t.Fatalf("failed insert left rows: %v", got)
	}
	if err := db.Insert("t", table.Row{table.Int(9), table.Str("after")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotRows(t, recovered, "t"); len(got) != 1 {
		t.Fatalf("recovered rows = %v, want just id 9", got)
	}
}

// TestAttachSnapshotsExistingState: attaching a journal to a database
// that already has tables checkpoints a full snapshot, so the file is
// self-contained from that moment.
func TestAttachSnapshotsExistingState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	s := walTestSchema()
	if _, err := db.CreateTable("pre", s, TableOptions{Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("pre", table.Row{table.Int(1), table.Str("existing")}); err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, path, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotRows(t, recovered, "pre"); len(got) != 1 {
		t.Fatalf("pre-attach state not snapshotted: %v", got)
	}
}

// TestAutoCheckpointCompacts: with a byte threshold configured, the
// journal compacts itself mid-workload and recovery still sees the full
// state.
func TestAutoCheckpointCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{AutoCheckpointBytes: 2048})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := db.CreateTable("t", s, TableOptions{Capacity: 128}); err != nil {
		t.Fatal(err)
	}
	// Insert+delete churn: the live state stays tiny while the history
	// grows, so compaction must actually shrink the file.
	for i := int64(0); i < 60; i++ {
		if err := db.Insert("t", table.Row{table.Int(i), table.Str("x")}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := db.Delete("t", func(r table.Row) bool {
				return r[0].AsInt() == i
			}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.WALStats().Checkpoints == 0 {
		t.Fatal("journal never auto-checkpointed")
	}
	before := snapshotRows(t, db, "t")
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotRows(t, recovered, "t"); rowsDiffer(got, before) {
		t.Fatalf("recovered %v, want %v", got, before)
	}
}

// TestRecoveryTraceLeakage pins what recovery reveals to the host: the
// untrusted access stream of replay plus rebuild is a function of the
// log's record count and the tables' final sizes — never of row values.
func TestRecoveryTraceLeakage(t *testing.T) {
	run := func(base int64) *trace.Tracer {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.wal")
		key := crypt.NewRandomKey()
		db := MustOpen(Config{})
		l := openTestLog(t, path, key, wal.Options{})
		if err := db.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		seededWorkload(t, db, base)
		l.Close()

		tr := trace.New()
		// Pin the enclave PRNG so ORAM leaf assignment is identical across
		// the two runs: with the randomness equalized, any trace divergence
		// is value leakage.
		recovered := MustOpen(Config{Tracer: tr, Seed: 7})
		l2 := openTestLog(t, path, key, wal.Options{Tracer: tr})
		if err := recovered.Recover(l2); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(1000)
	b := run(5000)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("recovery trace depends on row values: %s", d)
	}
}

// TestRecoverRequiresEmptyDB guards the recovery precondition.
func TestRecoverRequiresEmptyDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	db := MustOpen(Config{})
	if _, err := db.CreateTable("t", walTestSchema(), TableOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, path, crypt.NewRandomKey(), wal.Options{})
	if err := db.Recover(l); err == nil {
		t.Fatal("recovery into a non-empty database succeeded")
	}
}

// TestRecoverIsOneBracket: Recover refuses an engine with a journal
// attached, and runs as one bracket. A recovery faulted at a sample of
// its store accesses, its last one — in its final bulk load — included,
// answers CodeStoreFault and leaves an empty engine: no table, no
// oblivious memory held, no latch. The same engine then recovers the
// journal exactly. The journal drops a table and creates another under
// its name, so a rollback must drop the second and leave the first
// dropped.
func TestRecoverIsOneBracket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	db := MustOpen(Config{})
	if err := db.AttachWAL(openTestLog(t, path, key, wal.Options{})); err != nil {
		t.Fatal(err)
	}
	seededWorkload(t, db, 0)
	if _, err := db.CreateTable("scratch", walTestSchema(), TableOptions{Kind: KindIndexed, KeyColumn: "id", Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("scratch", table.Row{table.Int(1), table.Str("again")}); err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]string)
	for _, name := range db.Tables() {
		want[name] = snapshotRows(t, db, name)
	}
	l := openTestLog(t, path, key, wal.Options{})

	attached := MustOpen(Config{})
	if err := attached.AttachWAL(openTestLog(t, filepath.Join(t.TempDir(), "other.wal"), key, wal.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := attached.Recover(l); err == nil || len(attached.Tables()) != 0 {
		t.Fatalf("recovery into an engine with a journal attached answered %v, left tables %v", err, attached.Tables())
	}

	counter := new(armedFault)
	counter.arm(-1)
	if err := MustOpen(Config{Seed: 7, Fault: counter}).Recover(l); err != nil {
		t.Fatal(err)
	}
	n := counter.n.Load()
	var points []int64
	for at := int64(0); at < n-1; at += n/16 + 1 {
		points = append(points, at)
	}
	for _, at := range append(points, n-1) {
		inj := new(armedFault)
		rec := MustOpen(Config{Seed: 7, Fault: inj})
		used := rec.enc.Used()
		inj.arm(at)
		err := rec.Recover(l)
		if !inj.fired.Load() || oberr.CodeOf(err) != oberr.CodeStoreFault {
			t.Fatalf("fault at access %d of %d: recovery answered %v, want CodeStoreFault", at, n, err)
		}
		if tables := rec.Tables(); len(tables) != 0 || rec.enc.Used() != used || rec.Broken() != nil {
			t.Fatalf("fault at access %d: failed recovery left tables %v, %d B of oblivious memory held (want %d), latch %v",
				at, tables, rec.enc.Used(), used, rec.Broken())
		}
		inj.arm(-1)
		if err := rec.Recover(l); err != nil {
			t.Fatalf("recovery after a fault at access %d: %v", at, err)
		}
		if len(rec.Tables()) != len(want) {
			t.Fatalf("recovery after a fault at access %d holds tables %v", at, rec.Tables())
		}
		for name, rows := range want {
			if got := snapshotRows(t, rec, name); rowsDiffer(got, rows) {
				t.Fatalf("recovery after a fault at access %d: %s holds %v, want %v", at, name, got, rows)
			}
		}
	}
}

// TestDoubleAttachRejected guards the attach precondition.
func TestDoubleAttachRejected(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Config{})
	l := openTestLog(t, filepath.Join(dir, "a.wal"), crypt.NewRandomKey(), wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	l2 := openTestLog(t, filepath.Join(dir, "b.wal"), crypt.NewRandomKey(), wal.Options{})
	if err := db.AttachWAL(l2); err == nil {
		t.Fatal("second attach succeeded")
	}
}

// TestCrashRecoveryIndexOnlyTable is the kill-and-restart check for the
// indexed storage method: an index-only table's definition and mutations
// live solely in one WAL file across a crash, recovery rebuilds the ORAM
// B+ tree, and keyed reads route through it again.
func TestCrashRecoveryIndexOnlyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()

	crashed := MustOpen(Config{})
	l := openTestLog(t, path, key, wal.Options{})
	if err := crashed.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	s := walTestSchema()
	if _, err := crashed.CreateTable("kv", s, TableOptions{
		Kind: KindIndexed, KeyColumn: "id", Capacity: 64}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := crashed.Insert("kv", table.Row{table.Int(i), table.Str(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := crashed.Update("kv", nil, func(r table.Row) table.Row {
		r[1] = table.Str("seven")
		return r
	}, Point(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Delete("kv", nil, Point(3)); err != nil {
		t.Fatal(err)
	}
	// Crash: no Detach, no checkpoint — the file alone carries the state.
	l.Close()

	recovered := MustOpen(Config{})
	l2 := openTestLog(t, path, key, wal.Options{})
	if err := recovered.Recover(l2); err != nil {
		t.Fatal(err)
	}
	tab, err := recovered.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Kind() != KindIndexed || tab.Flat() != nil || tab.Index() == nil {
		t.Fatalf("recovered table: kind=%v flat=%v", tab.Kind(), tab.Flat())
	}
	if n := tab.NumRows(); n != 19 {
		t.Fatalf("recovered rows = %d, want 19", n)
	}

	// Keyed reads go through the rebuilt index (index-only tables have no
	// other path) and see the post-crash state: the update applied, the
	// deleted key gone, untouched keys intact.
	check := func(k int64, want ...string) {
		t.Helper()
		res, err := recovered.Select("kv", nil, SelectOptions{KeyRange: Point(k)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("key %d: %d rows, want %d", k, len(res.Rows), len(want))
		}
		if len(want) == 1 && res.Rows[0][1].AsString() != want[0] {
			t.Fatalf("key %d: value %q, want %q", k, res.Rows[0][1].AsString(), want[0])
		}
		if !recovered.LastPlan.UsedIndex {
			t.Fatalf("key %d: keyed read did not use the recovered index", k)
		}
	}
	check(7, "seven")
	check(3)
	check(11, "v11")
}
