package bench

import (
	"fmt"
	"time"

	"oblidb/internal/enclave"
	"oblidb/internal/indexed"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/workload"
)

// This file measures the indexed access method (DESIGN.md §15): the same
// point and small-range queries answered by a full flat scan versus the
// ORAM-backed index, as the table grows. The crossover is the planner's
// whole reason to exist — at small n the flat pass wins, at large n the
// O(log² n) index does.

// indexedSizes returns the figure's size sweep (paper counts, scaled).
func indexedSizes(o Options) []int {
	return []int{o.n(1000), o.n(10000), o.n(100000)}
}

// indexedCell is one measured (operation, size, method) point.
type indexedCell struct {
	Op      string // "point" | "range1pct"
	Rows    int    // table size n
	Method  string // "flat" | "indexed"
	NsPerOp float64
}

// indexedPair builds the two storage representations of the same n-row
// workload table at the paper's geometry (R = 1, one record per sealed
// block — the geometry Figure 2's asymptotic claims are stated in; the
// packing figure quantifies what larger R buys each method): a flat
// table, and an ORAM-backed indexed table keyed on the workload key
// column.
func indexedPair(o Options, n int) (*storage.Flat, *indexed.Table, error) {
	// The ring ORAM reserves ~144 B of enclave metadata per logical block
	// at R = 1, which outgrows the paper's 20 MB default near n = 100k;
	// size the modeled budget to the sweep so the figure measures the
	// access methods, not the budget.
	mem := enclave.DefaultObliviousMemory
	if need := 800 * n; need > mem {
		mem = need
	}
	e := enclave.MustNew(enclave.Config{Seed: o.seed(), ObliviousMemory: mem})
	f, err := packedTable(e, fmt.Sprintf("idxfig.flat.%d", n), n, 1)
	if err != nil {
		return nil, nil, err
	}
	idx, err := indexed.New(e, fmt.Sprintf("idxfig.idx.%d", n), workload.Schema(),
		0, n+64, indexed.Options{RowsPerBlock: 1})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = workload.NewRow(int64(i))
	}
	if err := idx.BulkLoad(rows); err != nil {
		return nil, nil, err
	}
	return f, idx, nil
}

// measureIndexed times point lookups and a 1% range read through both
// access methods on an n-row table. The flat method pays a full scan
// either way (§3: every flat operator touches every block); the index
// pays O(log n) ORAM operations for the point and O(log n + k) for the
// range.
func measureIndexed(o Options, n int) ([]indexedCell, error) {
	f, idx, err := indexedPair(o, n)
	if err != nil {
		return nil, err
	}
	defer idx.Close()

	span := n / 100
	if span < 1 {
		span = 1
	}
	lo := int64(n / 3)
	hi := lo + int64(span) - 1
	key := int64(n / 2)
	reps := 6

	var cells []indexedCell
	add := func(op, method string, d time.Duration) {
		cells = append(cells, indexedCell{Op: op, Rows: n, Method: method,
			NsPerOp: float64(d.Nanoseconds())})
	}

	// Flat point read: one full pass, matching on the key column.
	d, err := timedN(reps, func() error {
		return f.Scan(func(_ int, r table.Row, live bool) error {
			if live && r[0].AsInt() == key {
				_ = r[1]
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	add("point", "flat", d)

	// Flat 1% range read: the same full pass with a range predicate.
	d, err = timedN(reps, func() error {
		return f.Scan(func(_ int, r table.Row, live bool) error {
			if live {
				if k := r[0].AsInt(); k >= lo && k <= hi {
					_ = r[1]
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	add("range1pct", "flat", d)

	// Indexed point lookup: root-to-leaf descent through the ORAM.
	d, err = timedN(4*reps, func() error {
		_, _, err := idx.Lookup(key)
		return err
	})
	if err != nil {
		return nil, err
	}
	add("point", "indexed", d)

	// Indexed 1% range: descent plus a leaf walk over the scanned
	// segment (whose size is the §4.1 conceded leakage).
	d, err = timedN(reps, func() error {
		_, err := idx.RangeScan(lo, hi, func(uint32, table.Row) error { return nil })
		return err
	})
	if err != nil {
		return nil, err
	}
	add("range1pct", "indexed", d)
	return cells, nil
}

// indexedNs pulls one (op, method) timing out of a cell list.
func indexedNs(cells []indexedCell, op, method string) time.Duration {
	for _, c := range cells {
		if c.Op == op && c.Method == method {
			return time.Duration(c.NsPerOp)
		}
	}
	return 0
}

// RunIndexed is the "indexed" figure: flat scan versus ORAM index for
// point and 1% range reads across the size sweep.
func RunIndexed(o Options) error {
	o.printf("Indexed access method: flat scan vs ORAM index (point and 1%% range reads)\n")
	tp := newTable("n", "flat point", "index point", "speedup", "flat 1% range", "index 1% range", "speedup")
	for _, n := range indexedSizes(o) {
		cells, err := measureIndexed(o, n)
		if err != nil {
			return fmt.Errorf("indexed n=%d: %w", n, err)
		}
		fp := indexedNs(cells, "point", "flat")
		ip := indexedNs(cells, "point", "indexed")
		fr := indexedNs(cells, "range1pct", "flat")
		ir := indexedNs(cells, "range1pct", "indexed")
		tp.addf(n, fmtDur(fp), fmtDur(ip), ratio(fp, ip), fmtDur(fr), fmtDur(ir), ratio(fr, ir))
	}
	tp.render(o.Out)
	o.printf("  (paper geometry, R = 1: the flat method pays one block access per row\n")
	o.printf("   whatever the query; the index pays O(log n) ORAM ops per descent —\n")
	o.printf("   the planner flips between them on exactly these block-access prices,\n")
	o.printf("   see EXPLAIN)\n\n")
	return nil
}
