package difftest

import (
	"fmt"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/sql"
)

// TestDifferentialSQLWorkloads is the harness itself: seeded random
// workloads through the serial oblivious engine, the parallel engine at
// P ∈ {1, 2, 4}, and the baseline reference, asserting identical result
// multisets statement by statement.
func TestDifferentialSQLWorkloads(t *testing.T) {
	seeds := []uint64{1, 7, 20260726}
	opsPerSeed := 80
	if testing.Short() {
		seeds = seeds[:1]
		opsPerSeed = 40
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type engine struct {
				name string
				x    *sql.Executor
			}
			engines := []engine{}
			for _, p := range []int{0, 1, 2, 4} {
				name := "serial"
				if p > 0 {
					name = fmt.Sprintf("parallel-P%d", p)
				}
				db, err := core.Open(core.Config{Seed: seed + 1, Workers: p})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, engine{name, sql.New(db)})
			}
			// Block-packing matrix: the same workloads at R ∈ {1, 4, 16}
			// (the default engines above run the auto ~4 KiB packing), so
			// every packed geometry — including R = 1, the paper's — is
			// differentially checked against the same reference. R = 4
			// also runs parallel, exercising block-aligned partitions.
			for _, r := range []int{1, 4, 16} {
				db, err := core.Open(core.Config{Seed: seed + 1, RowsPerBlock: r})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, engine{fmt.Sprintf("packed-R%d", r), sql.New(db)})
			}
			dbp, err := core.Open(core.Config{Seed: seed + 1, RowsPerBlock: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, engine{"packed-R4-P2", sql.New(dbp)})
			ref := NewRef()
			for _, e := range engines {
				for _, ddl := range Setup() {
					if _, err := e.x.Execute(ddl); err != nil {
						t.Fatalf("%s: %s: %v", e.name, ddl, err)
					}
				}
			}

			g := NewGenerator(seed)
			for i := 0; i < opsPerSeed; i++ {
				op := g.Next()
				want := op.Ref(ref)
				var wantCanon string
				if want != nil {
					wantCanon = Canon(want.Cols, want.Rows)
				}
				for _, e := range engines {
					res, err := e.x.Execute(op.SQL)
					if err != nil {
						t.Fatalf("op %d on %s: %s: %v", i, e.name, op.SQL, err)
					}
					if want == nil {
						continue // DML: engines return affected counts
					}
					if got := Canon(res.Cols, res.Rows); got != wantCanon {
						t.Fatalf("op %d diverged on %s:\n  %s\n engine:\n%s\n reference:\n%s",
							i, e.name, op.SQL, got, wantCanon)
					}
				}
			}
		})
	}
}

// TestGeneratorDeterministic pins the generator's stream to its seed:
// the differential runs only mean something if every engine sees the
// same workload.
func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(99), NewGenerator(99)
	refA, refB := NewRef(), NewRef()
	for i := 0; i < 50; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.SQL != ob.SQL {
			t.Fatalf("op %d differs:\n%s\n%s", i, oa.SQL, ob.SQL)
		}
		oa.Ref(refA)
		ob.Ref(refB)
	}
}

// TestDifferentialSQLWorkloadsIndexed runs the same seeded workloads
// with the generator's key column indexed, so the planner's costed
// access choice (flat scan vs. ORAM index) and the dual-write DML paths
// are differentially checked against the reference at every packing
// R ∈ {1, 4, 16}, plus an index-only engine where the ORAM B+ tree is
// the sole representation. Every fourth DML statement additionally runs
// through BEGIN/COMMIT, exercising the deferred-transaction path.
func TestDifferentialSQLWorkloadsIndexed(t *testing.T) {
	seeds := []uint64{3, 11}
	opsPerSeed := 60
	if testing.Short() {
		seeds = seeds[:1]
		opsPerSeed = 30
	}
	bothDDL := []string{
		"CREATE TABLE t0 (k INTEGER, v INTEGER, s VARCHAR(12)) INDEX ON k CAPACITY = 512",
		"CREATE TABLE t1 (fk INTEGER, w INTEGER) CAPACITY = 512",
	}
	indexOnlyDDL := []string{
		"CREATE TABLE t0 (k INTEGER, v INTEGER, s VARCHAR(12)) USING INDEX(k) CAPACITY = 512",
		"CREATE TABLE t1 (fk INTEGER, w INTEGER) CAPACITY = 512",
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type engine struct {
				name string
				x    *sql.Executor
				tx   sql.TxState
			}
			engines := []*engine{}
			add := func(name string, r int, ddl []string) {
				db, err := core.Open(core.Config{Seed: seed + 1, RowsPerBlock: r})
				if err != nil {
					t.Fatal(err)
				}
				e := &engine{name: name, x: sql.New(db)}
				for _, stmt := range ddl {
					if _, err := e.x.Execute(stmt); err != nil {
						t.Fatalf("%s: %s: %v", name, stmt, err)
					}
				}
				engines = append(engines, e)
			}
			for _, r := range []int{1, 4, 16} {
				add(fmt.Sprintf("indexed-R%d", r), r, bothDDL)
			}
			add("index-only-R4", 4, indexOnlyDDL)

			ref := NewRef()
			g := NewGenerator(seed)
			for i := 0; i < opsPerSeed; i++ {
				op := g.Next()
				want := op.Ref(ref)
				var wantCanon string
				if want != nil {
					wantCanon = Canon(want.Cols, want.Rows)
				}
				for _, e := range engines {
					var res *core.Result
					var err error
					if want == nil && i%4 == 0 {
						// DML through an explicit transaction: buffer, then
						// commit the one-statement batch atomically.
						res, err = execInTx(e.x, &e.tx, op.SQL)
					} else {
						res, err = e.x.Execute(op.SQL)
					}
					if err != nil {
						t.Fatalf("op %d on %s: %s: %v", i, e.name, op.SQL, err)
					}
					if want == nil {
						continue
					}
					if got := Canon(res.Cols, res.Rows); got != wantCanon {
						t.Fatalf("op %d diverged on %s:\n  %s\n engine:\n%s\n reference:\n%s",
							i, e.name, op.SQL, got, wantCanon)
					}
				}
			}
		})
	}
}

// execInTx wraps one DML statement in BEGIN/COMMIT through the session
// transaction machinery.
func execInTx(x *sql.Executor, tx *sql.TxState, stmt string) (*core.Result, error) {
	if err := tx.Begin(); err != nil {
		return nil, err
	}
	prep, err := x.Prepare(stmt)
	if err != nil {
		return nil, err
	}
	if err := tx.Buffer(prep, nil); err != nil {
		return nil, err
	}
	items, err := tx.Take()
	if err != nil {
		return nil, err
	}
	return sql.Local(x).Commit(items)
}
