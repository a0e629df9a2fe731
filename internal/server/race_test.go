package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/server"
)

// TestServedConcurrentReadWrite drives the real served path — scheduler
// goroutine on its cadence, no Manual crutch — at Workers 4 with reader
// sessions racing writer sessions, so the read-run dispatch, the
// mutation barriers, the context pool, and the catalog snapshot all run
// under genuine concurrency. CI runs this package under the race
// detector; the assertions here are the semantic floor: every statement
// succeeds, reads never observe a torn count (counts are monotonic in
// the number of committed inserts), and the final state matches the
// writes exactly.
func TestServedConcurrentReadWrite(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		EpochSize:     8,
		EpochInterval: time.Millisecond,
		Engine:        core.Config{Workers: 4},
	})
	defer srv.Close()

	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer setup.Close()
	if _, err := setup.Exec("CREATE TABLE rw (k INTEGER, v VARCHAR(16)) CAPACITY = 512"); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 2, 12
	const readers, perReader = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO rw VALUES (%d, 'w%d')", k, k)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			last := int64(-1)
			for i := 0; i < perReader; i++ {
				res, err := c.Exec("SELECT COUNT(*) FROM rw")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
					errs <- fmt.Errorf("reader %d: malformed count result %v", r, res.Rows)
					return
				}
				n := res.Rows[0][0].AsInt()
				// Inserts only: a count that ever goes backwards means a
				// read observed state no serial execution could produce.
				if n < last || n > writers*perWriter {
					errs <- fmt.Errorf("reader %d: count went from %d to %d (max %d)", r, last, n, writers*perWriter)
					return
				}
				last = n
			}
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	res, err := setup.Exec("SELECT COUNT(*) FROM rw")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != writers*perWriter {
		t.Fatalf("final count %d; want %d", got, writers*perWriter)
	}
}
