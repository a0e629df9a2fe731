package sql

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/exec"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// TestProgrammaticReadsMatchSQL runs each programmatic read of core.DB
// and the SQL statement of the same shape on two traced engines with the
// same key. Both build the same plan and run through one interpreter, so
// they must return the same rows and leave the same canonical trace. The
// join pair compares rows only: SQL wraps a join in an extra all-rows
// Filter for its residual WHERE, a pass the programmatic join skips. The
// keyed table is large enough that the planner serves the key range
// through the index.
func TestProgrammaticReadsMatchSQL(t *testing.T) {
	hash := exec.SelectHash
	atLeast := func(r table.Row) bool { return r[1].AsInt() >= 30 }
	cases := []struct {
		name      string
		read      func(db *core.DB) (*core.Result, error)
		sql       string
		sameTrace bool
		index     bool
	}{
		{"Select", func(db *core.DB) (*core.Result, error) {
			return db.Select("t", atLeast, core.SelectOptions{})
		}, "SELECT * FROM t WHERE v >= 30", true, false},
		{"Select KeyRange", func(db *core.DB) (*core.Result, error) {
			return db.Select("kb", nil, core.SelectOptions{KeyRange: &core.KeyRange{Lo: 5, Hi: 8}})
		}, "SELECT * FROM kb WHERE id >= 5 AND id <= 8", true, true},
		{"Select Force", func(db *core.DB) (*core.Result, error) {
			return db.Select("t", atLeast, core.SelectOptions{Force: &hash})
		}, "SELECT * FROM t WHERE v >= 30 FORCE Hash", true, false},
		{"Select Projection", func(db *core.DB) (*core.Result, error) {
			return db.Select("t", atLeast, core.SelectOptions{Projection: []string{"name", "id"}})
		}, "SELECT name, id FROM t WHERE v >= 30", true, false},
		{"Aggregate", func(db *core.DB) (*core.Result, error) {
			return db.Aggregate("t", atLeast, []core.AggregateSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Column: "id"}}, nil)
		}, "SELECT COUNT(*), SUM(id) FROM t WHERE v >= 30", true, false},
		{"GroupAggregate", func(db *core.DB) (*core.Result, error) {
			return db.GroupAggregate("t", nil, func(r table.Row) table.Value { return r[1] },
				[]core.AggregateSpec{{Kind: exec.AggSum, Column: "id"}, {Kind: exec.AggMax, Column: "id"}}, nil)
		}, "SELECT v, SUM(id), MAX(id) FROM t GROUP BY v", true, false},
		{"Join", func(db *core.DB) (*core.Result, error) {
			return db.Join("kb", "t", "id", "id", core.JoinOptions{FilterRight: atLeast})
		}, "SELECT * FROM kb JOIN t ON kb.id = t.id WHERE t.v >= 30", false, false},
	}

	progDB, _, progTr := twinEngine(t, false)
	_, sqlX, sqlTr := twinEngine(t, false)
	for _, tc := range cases {
		progTr.Reset()
		want, err := tc.read(progDB)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		progPrint := progTr.CanonicalFingerprint()
		if tc.index && !progDB.LastPlan.UsedIndex {
			t.Errorf("%s: the key range did not use the index", tc.name)
		}
		sqlTr.Reset()
		got := mustExec(t, sqlX, tc.sql)
		if w, g := renderRows(want), renderRows(got); w != g {
			t.Errorf("%s: rows differ\nprogrammatic %s\nSQL          %s", tc.name, w, g)
		}
		if len(want.Rows) == 0 {
			t.Errorf("%s: no rows; the pair compares nothing", tc.name)
		}
		if tc.sameTrace && progPrint != sqlTr.CanonicalFingerprint() {
			t.Errorf("%s: programmatic and SQL traces differ", tc.name)
		}
	}
}

// twinEngine opens a traced engine holding the twin tests' tables: t, a
// small flat table, and kb, a 1000-row flat-and-index table keyed on id.
// journal attaches a journal after the load.
func twinEngine(t *testing.T, journal bool) (*core.DB, *Executor, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	db, err := core.Open(core.Config{Tracer: tr, Key: fixedTraceKey, RowsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := New(db)
	mustExec(t, x, "CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8)) CAPACITY = 16")
	mustExec(t, x, "INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c'), (4, 20, 'd'), (5, 30, 'e'), (6, 30, 'f'), (7, 40, 'g'), (8, 40, 'h')")
	mustExec(t, x, "CREATE TABLE kb (id INTEGER, w INTEGER) STORAGE = BOTH INDEX ON id CAPACITY = 1024")
	rows := make([]table.Row, 1000)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Int(int64(100 + i))}
	}
	if err := db.BulkLoad("kb", rows); err != nil {
		t.Fatal(err)
	}
	if journal {
		l, err := wal.Open(filepath.Join(t.TempDir(), "twin.wal"), fixedTraceKey, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if err := db.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
	}
	return db, x, tr
}

// TestProgrammaticWritesMatchSQL is the write half of the twin test: on
// two journaled engines with the same key, each programmatic write and
// the SQL statement of the same shape build the same plan, so they must
// affect the same rows, leave the same tables and leave byte-identical
// traces. The keyed writes find their rows through kb's index.
func TestProgrammaticWritesMatchSQL(t *testing.T) {
	atLeast := func(r table.Row) bool { return r[1].AsInt() >= 30 }
	zeroW := func(r table.Row) table.Row { r[1] = table.Int(0); return r }
	cases := []struct {
		name  string
		write func(db *core.DB) (int, error)
		sql   string
	}{
		{"Insert", func(db *core.DB) (int, error) {
			return 2, db.Insert("kb", table.Row{table.Int(2000), table.Int(1)}, table.Row{table.Int(7), table.Int(2)})
		}, "INSERT INTO kb VALUES (2000, 1), (7, 2)"},
		{"Delete KeyRange", func(db *core.DB) (int, error) {
			return db.Delete("kb", func(r table.Row) bool { return r[1].AsInt() == 2 }, core.Point(7))
		}, "DELETE FROM kb WHERE id = 7 AND w = 2"},
		{"Update KeyRange", func(db *core.DB) (int, error) {
			return db.Update("kb", nil, zeroW, &core.KeyRange{Lo: 8, Hi: 12})
		}, "UPDATE kb SET w = 0 WHERE id >= 8 AND id <= 12"},
		{"Update", func(db *core.DB) (int, error) {
			return db.Update("t", atLeast, zeroW, nil)
		}, "UPDATE t SET v = 0 WHERE v >= 30"},
		{"Delete", func(db *core.DB) (int, error) {
			return db.Delete("t", func(r table.Row) bool { return r[1].AsInt() < 20 }, nil)
		}, "DELETE FROM t WHERE v < 20"},
	}
	progDB, progX, progTr := twinEngine(t, true)
	_, sqlX, sqlTr := twinEngine(t, true)
	for _, tc := range cases {
		progTr.Reset()
		n, err := tc.write(progDB)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		progPrint := progTr.CanonicalFingerprint()
		sqlTr.Reset()
		res := mustExec(t, sqlX, tc.sql)
		if got := int(res.Rows[0][0].AsInt()); got != n || n == 0 {
			t.Errorf("%s: programmatic affected %d rows, SQL %d", tc.name, n, got)
		}
		if progPrint != sqlTr.CanonicalFingerprint() {
			t.Errorf("%s: programmatic and SQL traces differ", tc.name)
		}
		for _, q := range []string{"SELECT * FROM t", "SELECT * FROM kb"} {
			if w, g := renderRows(mustExec(t, progX, q)), renderRows(mustExec(t, sqlX, q)); w != g {
				t.Errorf("%s: %s differs\nprogrammatic %s\nSQL          %s", tc.name, q, w, g)
			}
		}
	}
}

// renderRows renders a result's rows as a sorted list, so a pair whose
// operators emit rows in different orders still compares equal.
func renderRows(res *core.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}
