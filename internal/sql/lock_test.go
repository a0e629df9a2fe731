package sql

import (
	"fmt"
	"sync"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/table"
)

// TestSelectsAvoidExclusiveLock pins the lock discipline read scaling
// depends on: on a concurrent-read engine, a SELECT — including its
// one-shot plan compilation (db.Table, db.TableMeta) — takes only the
// shared side of the engine lock. One exclusive acquisition on this
// path would park every later reader behind it (Go's RWMutex queues
// writers ahead of new readers), silently re-serializing the epoch's
// read runs; counting acquisitions catches that without any timing.
func TestSelectsAvoidExclusiveLock(t *testing.T) {
	db := core.MustOpen(core.Config{Seed: 1, Workers: 4})
	x := New(db)
	if _, err := x.Execute("CREATE TABLE s (k INTEGER, payload VARCHAR(32)) CAPACITY = 256"); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 128)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("p%d", i))}
	}
	if err := db.BulkLoad("s", rows); err != nil {
		t.Fatal(err)
	}

	before := db.LockStats()
	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct literals so every statement is a one-shot that
				// compiles its own plan — the compile path is under test.
				if _, err := x.Execute(fmt.Sprintf("SELECT COUNT(*) FROM s WHERE k = %d", w*perWorker+i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	after := db.LockStats()

	if got := after.ExclusiveAcquires - before.ExclusiveAcquires; got != 0 {
		t.Errorf("concurrent SELECTs took the exclusive lock %d times; want 0", got)
	}
	// Each statement takes the shared side at least twice: once to
	// compile (catalog lookup) and once to execute.
	if got, min := after.SharedAcquires-before.SharedAcquires, uint64(2*workers*perWorker); got < min {
		t.Errorf("concurrent SELECTs took the shared lock %d times; want at least %d", got, min)
	}
}
