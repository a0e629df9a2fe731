package bench

import (
	"fmt"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/workload"
)

// This file measures block packing (DESIGN.md §12): the same oblivious
// operations at R = 1 (the paper's one-record-per-block geometry) versus
// packed geometries, where every full-table pass costs one AEAD
// open/seal per sealed block instead of per row.

// packingGeometries lists the packing factors the figure sweeps: the
// paper geometry, two fixed intermediate points, and the engine's
// ~4 KiB default for the workload schema.
func packingGeometries() []int {
	def := storage.DefaultRowsPerBlock(workload.Schema())
	gs := []int{1, 4, 16}
	for _, g := range gs {
		if g == def {
			return gs
		}
	}
	if def > 1 {
		gs = append(gs, def)
	}
	return gs
}

// packedTable builds and fills a flat workload table at geometry r.
func packedTable(e *enclave.Enclave, name string, rows, r int) (*storage.Flat, error) {
	f, err := storage.NewFlatGeom(e, name, workload.Schema(), rows, r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if err := f.InsertFast(workload.NewRow(int64(i)), nil); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// packingCell is one measured (operation, R) point.
type packingCell struct {
	Op      string
	Rows    int
	R       int
	NsPerOp float64
}

// measurePacking times the scan / select / insert trio at geometry r.
// The select runs through the engine (stats scan + planner + chosen
// operator), exactly the full-table select path queries take; the insert
// is the oblivious full-scan variant (§3.1).
func measurePacking(o Options, rows, r int) ([]packingCell, error) {
	var cells []packingCell

	// Flat scan: the read pass under every aggregate and stats scan.
	e := enclave.MustNew(enclave.Config{Seed: o.seed()})
	f, err := packedTable(e, fmt.Sprintf("pack.r%d", r), rows, r)
	if err != nil {
		return nil, err
	}
	reps := 5
	d, err := timedN(reps, func() error {
		return f.Scan(func(int, table.Row, bool) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	cells = append(cells, packingCell{"flat_scan", rows, r, float64(d.Nanoseconds())})

	// Engine select (~10% selectivity): stats scan + planner + operator +
	// collect.
	db := core.MustOpen(core.Config{Seed: o.seed(), RowsPerBlock: r})
	if err := workload.Setup(db, "t", core.KindFlat, rows); err != nil {
		return nil, err
	}
	cut := int64(rows / 10)
	d, err = timedN(reps, func() error {
		_, err := db.Select("t", func(rw table.Row) bool { return rw[0].AsInt() < cut }, core.SelectOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	cells = append(cells, packingCell{"select", rows, r, float64(d.Nanoseconds())})

	// Oblivious insert: one full read+rewrite pass over the table.
	half, err := storage.NewFlatGeom(e, fmt.Sprintf("pack.ins.r%d", r), workload.Schema(), rows, r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows/2; i++ {
		if err := half.InsertFast(workload.NewRow(int64(i)), nil); err != nil {
			return nil, err
		}
	}
	d, err = timedN(reps, func() error { return half.Insert(workload.NewRow(0)) })
	if err != nil {
		return nil, err
	}
	cells = append(cells, packingCell{"insert", rows, r, float64(d.Nanoseconds())})
	return cells, nil
}

// RunPacking is the "packing" figure: scan, select, and oblivious-insert
// wall time at each geometry, with the speedup over R = 1.
func RunPacking(o Options) error {
	rows := o.n(100000)
	o.printf("Block packing: R rows per sealed block (%d-row table, %d B records)\n",
		rows, workload.Schema().RecordSize())
	cells := map[int][]packingCell{}
	for _, r := range packingGeometries() {
		cs, err := measurePacking(o, rows, r)
		if err != nil {
			return fmt.Errorf("packing R=%d: %w", r, err)
		}
		cells[r] = cs
	}
	base := cells[1]
	tp := newTable("R", "block bytes", "scan", "select", "insert", "scan speedup", "select speedup")
	for _, r := range packingGeometries() {
		cs := cells[r]
		tp.addf(r, workload.Schema().BlockSize(r),
			time.Duration(cs[0].NsPerOp), time.Duration(cs[1].NsPerOp), time.Duration(cs[2].NsPerOp),
			ratio(time.Duration(base[0].NsPerOp), time.Duration(cs[0].NsPerOp)),
			ratio(time.Duration(base[1].NsPerOp), time.Duration(cs[1].NsPerOp)))
	}
	tp.render(o.Out)
	o.printf("  (R=1 is the paper's geometry; the default packs ~4 KiB of plaintext per\n")
	o.printf("   sealed block, dividing AEAD calls, trace events, and allocations per\n")
	o.printf("   full-table pass by R — §3's block is the sealed unit, not the row)\n\n")
	return nil
}
