package bench

import (
	"fmt"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/exec"
	"oblidb/internal/table"
)

// RunParallel measures the partition-parallel operators: wall-clock per
// operation at worker-pool sizes 1, 2, 4, and 8, on the operator mix a
// selection-heavy serving workload actually runs (fused aggregates,
// selective Hash selects, near-full Large selects, and the broadcast
// hash join). There is no paper figure to match — the paper's engine is
// single-threaded — but this is the tentpole number for the ROADMAP's
// "as fast as the hardware allows": the dominant per-block cost is
// AES-GCM sealing, which partitions perfectly, so speedup should track
// P until the serial combine step bites.
func RunParallel(o Options) error {
	o.printf("Parallel speedup: operator wall-clock vs worker-pool size P\n")
	rows := o.n(200000)
	ps := []int{1, 2, 4, 8}

	schema := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindInt},
	)
	smallSchema := table.MustSchema(table.Column{Name: "k", Kind: table.KindInt})

	setup := func(p int) (*core.DB, error) {
		db, err := core.Open(core.Config{ObliviousMemory: o.obliviousMemory(), Seed: o.seed(), Workers: p})
		if err != nil {
			return nil, err
		}
		if _, err := db.CreateTable("big", schema, core.TableOptions{Capacity: rows}); err != nil {
			return nil, err
		}
		data := make([]table.Row, rows)
		for i := range data {
			data[i] = table.Row{table.Int(int64(i)), table.Int(int64(i % 100))}
		}
		if err := db.BulkLoad("big", data); err != nil {
			return nil, err
		}
		if _, err := db.CreateTable("small", smallSchema, core.TableOptions{Capacity: 64}); err != nil {
			return nil, err
		}
		keys := make([]table.Row, 64)
		for i := range keys {
			keys[i] = table.Row{table.Int(int64(i))}
		}
		if err := db.BulkLoad("small", keys); err != nil {
			return nil, err
		}
		return db, nil
	}

	hash := exec.SelectHash
	large := exec.SelectLarge
	hashJoin := exec.JoinHash
	selWidth := int64(max(1, rows/100)) // ≈1% of the table matches
	ops := []struct {
		name string
		run  func(db *core.DB) error
	}{
		{"aggregate (fused COUNT+SUM)", func(db *core.DB) error {
			_, err := db.Aggregate("big", func(r table.Row) bool { return r[1].AsInt() < 50 },
				[]core.AggregateSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Column: "v"}}, nil)
			return err
		}},
		{fmt.Sprintf("select Hash (|R|=%d)", selWidth), func(db *core.DB) error {
			_, err := db.Select("big",
				func(r table.Row) bool { return r[0].AsInt() < selWidth },
				core.SelectOptions{Force: &hash})
			return err
		}},
		{"select Large (R≈N)", func(db *core.DB) error {
			_, err := db.Select("big",
				func(r table.Row) bool { return r[1].AsInt() >= 0 },
				core.SelectOptions{Force: &large})
			return err
		}},
		{"hash join (64 ⋈ N)", func(db *core.DB) error {
			_, err := db.Join("small", "big", "k", "k", core.JoinOptions{Force: &hashJoin})
			return err
		}},
	}

	times := make(map[string]map[int]time.Duration)
	for _, p := range ps {
		db, err := setup(p)
		if err != nil {
			return fmt.Errorf("parallel: setup P=%d: %w", p, err)
		}
		for _, op := range ops {
			d, err := timedN(2, func() error { return op.run(db) })
			if err != nil {
				return fmt.Errorf("parallel: %s at P=%d: %w", op.name, p, err)
			}
			if times[op.name] == nil {
				times[op.name] = make(map[int]time.Duration)
			}
			times[op.name][p] = d
		}
	}

	tp := newTable("Operation", "P=1", "P=2", "P=4", "P=8", "Speedup @4")
	for _, op := range ops {
		row := times[op.name]
		tp.addf(op.name, row[1], row[2], row[4], row[8], ratio(row[1], row[4]))
	}
	tp.render(o.Out)
	o.printf("  (%d-row table; partitioned execution per core.Config.Workers, planner-chosen P capped by the pool)\n\n", rows)
	return nil
}
