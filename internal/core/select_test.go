package core

import (
	"fmt"
	"slices"
	"testing"

	"oblidb/internal/baseline"
	"oblidb/internal/exec"
	"oblidb/internal/planner"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// The serial select gathers the planner's statistics in Small's first
// pass and stops there when the matches fit the buffer of B rows; a
// larger |R| falls back to the stats pass's plan. These tests run both
// sides of that line on an engine whose budget holds B = 4 rows.

const (
	fusedRows = 32 // |T| in rows: 8 blocks at R = 4
	fusedB    = 4  // buffer rows the budget allows
)

// fusedDB opens a traced engine whose oblivious memory holds fusedB
// records of seedFlat's schema, and loads vals into table "t".
func fusedDB(t *testing.T, tr *trace.Tracer, vals []int64) *DB {
	t.Helper()
	rec := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
	).RecordSize()
	db, err := Open(Config{Tracer: tr, Key: fixedKey, RowsPerBlock: 4, ObliviousMemory: fusedB*rec + rec/2})
	if err != nil {
		t.Fatal(err)
	}
	seedFlat(t, db, vals)
	if got := db.enc.Available() / rec; got != fusedB {
		t.Fatalf("budget holds %d rows, want %d", got, fusedB)
	}
	return db
}

// fusedData returns a table of fusedRows values with k rows equal to v:
// every other slot from offset off while they last (so k ≥ 2 matches are
// never adjacent), all slots when k = fusedRows. Other rows hold filler.
func fusedData(k int, v int64, off int, filler int64) []int64 {
	vals := make([]int64, fusedRows)
	for i := range vals {
		vals[i] = filler + int64(i)%3
	}
	if k == fusedRows {
		for i := range vals {
			vals[i] = v
		}
		return vals
	}
	for i := 0; i < k; i++ {
		vals[off+2*i] = v
	}
	return vals
}

func eqVal(v int64) table.Pred {
	return func(r table.Row) bool { return r[1].AsInt() == v }
}

// fusedSelect runs one select on a fresh engine over vals and returns
// its trace (tracing stops when the select returns), its rows and the
// plan it ran.
func fusedSelect(t *testing.T, vals []int64, v int64) (*trace.Tracer, []table.Row, PlanInfo) {
	t.Helper()
	tr := trace.New()
	db := fusedDB(t, tr, vals)
	tab, _ := db.Table("t")
	tr.Reset()
	out, err := db.selectTable(db.serialCtx, tab, eqVal(v), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Disable()
	if peak, budget := db.enc.PeakUsed(), db.enc.Budget(); peak > budget {
		t.Fatalf("peak oblivious memory %d exceeds the budget %d", peak, budget)
	}
	rows, err := out.Flat().Rows()
	if err != nil {
		t.Fatal(err)
	}
	return tr, rows, db.LastPlan
}

// replaySelect replays a select's operators directly on a same-seed
// twin of fusedDB: with stats, the planner's stats pass then the
// operator it picks; without, Small alone over the known |R|.
func replaySelect(t *testing.T, vals []int64, v int64, stats bool) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	db := fusedDB(t, tr, vals)
	tab, _ := db.Table("t")
	in := exec.FromFlat(tab.Flat())
	pred := eqVal(v)
	tr.Reset()
	name := db.tmpName("select")
	st, err := planner.ScanStats(in, pred)
	if err != nil {
		t.Fatal(err)
	}
	alg := planner.ChooseSelect(db.enc, tab.Schema().RecordSize(), st, db.cfg.Planner)
	if !stats {
		tr.Reset() // keep only the operator's accesses
		alg = exec.SelectSmall
	}
	if _, err := exec.Select(db.enc, in, pred, alg, exec.SelectOptions{OutSize: st.Matching}, name); err != nil {
		t.Fatal(err)
	}
	return tr
}

func sortedByID(rows []table.Row) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].AsInt()
	}
	slices.Sort(ids)
	return ids
}

func TestFusedSelectBothPaths(t *testing.T) {
	for _, k := range []int{0, 1, fusedB, fusedB + 1, fusedRows} {
		t.Run(fmt.Sprintf("R=%d", k), func(t *testing.T) {
			valsA := fusedData(k, 7, 0, 100)
			valsB := fusedData(k, 9, 5, 200)
			trA, rowsA, planA := fusedSelect(t, valsA, 7)
			trB, rowsB, planB := fusedSelect(t, valsB, 9)

			for _, c := range []struct {
				vals []int64
				v    int64
				rows []table.Row
			}{{valsA, 7, rowsA}, {valsB, 9, rowsB}} {
				ref := baseline.NewPlainTable(nil)
				for i, x := range c.vals {
					ref.Insert(table.Row{table.Int(int64(i)), table.Int(x)})
				}
				if got, want := sortedByID(c.rows), sortedByID(ref.Select(eqVal(c.v))); !slices.Equal(got, want) {
					t.Fatalf("select = ids %v, baseline %v", got, want)
				}
			}
			if planA.SelectAlg != planB.SelectAlg || planA.Stats.Matching != k {
				t.Fatalf("plans %v/%v with |R| = %d, want one plan at |R| = %d", planA.SelectAlg, planB.SelectAlg, planA.Stats.Matching, k)
			}
			if d := trace.Diff(trA, trB); d != "" {
				t.Fatalf("same-|R| selects over different data: %s", d)
			}

			// |R| ≤ B: Small's own pass was the only pass over the input.
			// |R| > B: the stats pass, then the operator it picks.
			fits := k <= fusedB
			if fits && planA.SelectAlg != exec.SelectSmall {
				t.Fatalf("a select that fits ran %v, want Small", planA.SelectAlg)
			}
			if d := trace.Diff(trA, replaySelect(t, valsA, 7, !fits)); d != "" {
				t.Fatalf("trace differs from the replayed operators (stats pass %v): %s", !fits, d)
			}
		})
	}
}
