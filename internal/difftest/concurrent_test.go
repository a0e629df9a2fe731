package difftest

import (
	"fmt"
	"sync"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/sql"
)

// TestDifferentialConcurrentReads extends the matrix with the
// concurrent-read engines the server fans epochs out on: the same seeded
// workloads, but every run of consecutive queries executes across
// goroutines on an engine whose context pool is 2 or 4 wide — the exact
// shape RunEpoch drives at Workers ∈ {2, 4} — while a chaff writer
// hammers a table the queries never read, so shared-side reads genuinely
// race exclusive-side writes on the engine lock. At R = 1 t0's 512
// blocks partition, so the workers-W4-R1 engine's read runs mix reads
// upgraded to the exclusive side (split over the pool) with read-slot
// reads. Workload
// DML applies between runs, like the epoch scheduler's mutation
// barriers. Every query's multiset must still match the serial
// reference exactly: a read that ever observes a torn catalog, a
// half-applied mutation, or another slot's scratch state diverges here.
func TestDifferentialConcurrentReads(t *testing.T) {
	seeds := []uint64{5, 13, 20260808}
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
				db   *core.DB
				x    *sql.Executor
				// split counts reads that ran partitioned on the
				// exclusive side; wantSplit engines must see at least one.
				split     int
				wantSplit bool
			}
			engines := []*engine{}
			for _, c := range []struct {
				name string
				cfg  core.Config
			}{
				{"readconc-W2", core.Config{Seed: seed + 1, Workers: 2}},
				{"readconc-W4", core.Config{Seed: seed + 1, Workers: 4}},
				{"workers-W4-R1", core.Config{Seed: seed + 1, Workers: 4, RowsPerBlock: 1}},
			} {
				db, err := core.Open(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, &engine{name: c.name, db: db, x: sql.New(db), wantSplit: c.cfg.RowsPerBlock == 1})
			}
			ref := NewRef()
			for _, e := range engines {
				for _, ddl := range Setup() {
					if _, err := e.x.Execute(ddl); err != nil {
						t.Fatalf("%s: %s: %v", e.name, ddl, err)
					}
				}
				// The chaff table: written concurrently with every read run,
				// never read by the workload, so racing it is deterministic.
				if _, err := e.x.Execute("CREATE TABLE chaff (a INTEGER) CAPACITY = 16"); err != nil {
					t.Fatal(err)
				}
				if _, err := e.x.Execute("INSERT INTO chaff VALUES (0)"); err != nil {
					t.Fatal(err)
				}
			}

			type pendingRead struct {
				sql  string
				want string
				op   int
			}
			var pending []pendingRead
			flush := func() {
				if len(pending) == 0 {
					return
				}
				const chaffWrites = 2
				for _, e := range engines {
					var wg sync.WaitGroup
					before := e.db.LockStats().ExclusiveAcquires
					// Exclusive-side chaff racing the shared-side reads.
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < chaffWrites; i++ {
							if _, err := e.x.Execute("UPDATE chaff SET a = a + 1"); err != nil {
								t.Errorf("%s: chaff write: %v", e.name, err)
								return
							}
						}
					}()
					for _, pr := range pending {
						wg.Add(1)
						go func(pr pendingRead) {
							defer wg.Done()
							res, err := e.x.Execute(pr.sql)
							if err != nil {
								t.Errorf("op %d on %s: %s: %v", pr.op, e.name, pr.sql, err)
								return
							}
							if got := Canon(res.Cols, res.Rows); got != pr.want {
								t.Errorf("op %d diverged on %s:\n  %s\n engine:\n%s\n reference:\n%s",
									pr.op, e.name, pr.sql, got, pr.want)
							}
						}(pr)
					}
					wg.Wait()
					// Every exclusive acquisition beyond the chaff writes is
					// a read that upgraded to run partitioned.
					e.split += int(e.db.LockStats().ExclusiveAcquires-before) - chaffWrites
				}
				pending = pending[:0]
			}

			g := NewGenerator(seed)
			for i := 0; i < opsPerSeed; i++ {
				op := g.Next()
				want := op.Ref(ref)
				if want == nil {
					// Mutation barrier: drain the read run, then apply the
					// DML alone, in arrival order — RunEpoch's discipline.
					flush()
					for _, e := range engines {
						if _, err := e.x.Execute(op.SQL); err != nil {
							t.Fatalf("op %d on %s: %s: %v", i, e.name, op.SQL, err)
						}
					}
					continue
				}
				pending = append(pending, pendingRead{op.SQL, Canon(want.Cols, want.Rows), i})
			}
			flush()
			for _, e := range engines {
				if e.wantSplit && e.split < 1 {
					t.Errorf("%s: no read ran partitioned", e.name)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		})
	}
}
