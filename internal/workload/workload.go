// Package workload drives the mixed read/write workloads of Figure 12:
// five mixes (L1–L5) of point reads (1 row), small reads (50 rows), large
// reads (5% of the table), insertions, and deletions, executed against a
// table stored flat, indexed, or both, to show when each representation
// — and the combined one — wins.
package workload

import (
	"fmt"
	"math/rand/v2"

	"oblidb/internal/core"
	"oblidb/internal/table"
)

// Mix is one workload's operation percentages (Figure 12's table).
type Mix struct {
	Name                            string
	PointRead, SmallRead, LargeRead int
	Insert, Delete                  int
}

// Mixes are the paper's five workloads.
var Mixes = []Mix{
	{Name: "L1", PointRead: 5, LargeRead: 5, Insert: 90},
	{Name: "L2", SmallRead: 90, Insert: 9, Delete: 1},
	{Name: "L3", PointRead: 50, LargeRead: 50},
	{Name: "L4", PointRead: 45, LargeRead: 45, Insert: 5, Delete: 5},
	{Name: "L5", LargeRead: 90, Insert: 5, Delete: 5},
}

// Schema is the benchmark table: an integer key and a fixed payload.
func Schema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 32},
	)
}

// NewRow builds one row for key k.
func NewRow(k int64) table.Row {
	return table.Row{table.Int(k), table.Str(fmt.Sprintf("payload-%016d", k))}
}

// Setup creates and loads a workload table named name with keys
// 0..rows-1.
func Setup(db *core.DB, name string, kind core.StorageKind, rows int) error {
	keyCol := ""
	if kind != core.KindFlat {
		keyCol = "k"
	}
	if _, err := db.CreateTable(name, Schema(), core.TableOptions{
		Kind: kind, KeyColumn: keyCol, Capacity: rows + rows/4 + 64,
	}); err != nil {
		return err
	}
	data := make([]table.Row, rows)
	for i := range data {
		data[i] = NewRow(int64(i))
	}
	return db.BulkLoad(name, data)
}

// Runner executes mix operations against one table.
type Runner struct {
	DB      *core.DB
	Name    string
	Rows    int // initial table size; sets read-range spans
	rng     *rand.Rand
	nextKey int64
}

// NewRunner prepares a runner with a deterministic op stream.
func NewRunner(db *core.DB, name string, rows int, seed uint64) *Runner {
	return &Runner{DB: db, Name: name, Rows: rows,
		rng: rand.New(rand.NewPCG(seed, 0x17)), nextKey: int64(rows)}
}

// RunOp executes one operation of the given category. Read results are
// discarded; errors abort the workload.
func (r *Runner) RunOp(category string) error {
	span := int64(r.Rows)
	switch category {
	case "point":
		k := r.rng.Int64N(span)
		return r.read(k, k)
	case "small":
		lo := r.rng.Int64N(span)
		return r.read(lo, lo+49)
	case "large":
		width := span / 20 // 5% of the table
		if width < 1 {
			width = 1
		}
		lo := r.rng.Int64N(span)
		return r.read(lo, lo+width-1)
	case "insert":
		k := r.nextKey
		r.nextKey++
		return r.DB.Insert(r.Name, NewRow(k))
	case "delete":
		k := r.rng.Int64N(span)
		_, err := r.DB.Delete(r.Name, nil, core.Point(k))
		return err
	}
	return fmt.Errorf("workload: unknown category %q", category)
}

// read selects keys in [lo, hi] through the access method the planner
// prices cheaper (planner.ChooseAccess): the index for narrow ranges,
// the flat representation for wide ones — the §3.3 rationale for keeping
// both ("use the index for point queries and the flat table for
// full-table ... queries"). A table without an index ignores the range;
// the predicate restricts the scan on its own.
func (r *Runner) read(lo, hi int64) error {
	pred := func(row table.Row) bool {
		k := row[0].AsInt()
		return k >= lo && k <= hi
	}
	_, err := r.DB.Select(r.Name, pred, core.SelectOptions{KeyRange: &core.KeyRange{Lo: lo, Hi: hi}})
	return err
}

// Ops builds a deterministic operation sequence of length n matching the
// mix's percentages.
func (m Mix) Ops(n int, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0x23))
	ops := make([]string, n)
	for i := range ops {
		p := rng.IntN(100)
		switch {
		case p < m.PointRead:
			ops[i] = "point"
		case p < m.PointRead+m.SmallRead:
			ops[i] = "small"
		case p < m.PointRead+m.SmallRead+m.LargeRead:
			ops[i] = "large"
		case p < m.PointRead+m.SmallRead+m.LargeRead+m.Insert:
			ops[i] = "insert"
		default:
			ops[i] = "delete"
		}
	}
	return ops
}
