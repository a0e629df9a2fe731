package server_test

import (
	"fmt"
	"testing"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/server"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// These tests pin the concurrency tentpole's observability claim: a
// server running four read slots at once (Engine.Workers 4)
// publishes exactly the observable stream of the serial server — same
// epoch slot stream, and the same engine-level untrusted-access profile
// — for the same workload. The workload is
// queued with deterministic arrival order (one statement at a time,
// confirmed via Pending before the next submit) so the only variable
// between the two runs is how many slots execute concurrently.
//
// Flat tables get the strong form: the full multiset fingerprint over
// (structure, op, block) is byte-identical, because flat reads touch a
// set of blocks fixed by the statement alone. ORAM-backed tables get
// the form the leakage model actually promises: per-structure access
// *counts* are identical, while the leaf sequence legitimately depends
// on which read ran first — randomized remapping is the whole point.

// traceRun is everything observable from one server run.
type traceRun struct {
	stream      []int
	fingerprint [32]byte
	counts      map[string]uint64
	real, dummy uint64
}

// driveWorkload starts a Manual-mode server at the given worker count,
// applies setup serially on the engine, then queues each wave with
// deterministic arrival order and drains it with explicit epochs.
func driveWorkload(t *testing.T, workers int, setup func(t *testing.T, x *sql.Executor, db *core.DB), waves [][]string) traceRun {
	t.Helper()
	const epochSize = 4

	engTr := trace.New()
	eng := core.Config{Seed: 42, Tracer: engTr}
	var readTrs []*trace.Tracer
	if workers > 1 {
		for i := 0; i < workers; i++ {
			readTrs = append(readTrs, trace.New())
		}
		eng.Workers = workers
		eng.WorkerTracers = readTrs
	}
	srv, addr := startServer(t, server.Config{
		EpochSize: epochSize,
		Manual:    true,
		Engine:    eng,
		Tracer:    trace.New(), // enables ObservedStream recording
	})

	// Setup runs serially on the engine before any epoch, so it is
	// identical at every worker count.
	setup(t, sql.New(srv.DB()), srv.DB())

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	for _, wave := range waves {
		done := make(chan error, len(wave))
		// Queue one statement at a time: arrival order — and with it the
		// slot assignment and every mutation barrier position — is then
		// identical across runs, so concurrency is the only difference.
		for i, stmt := range wave {
			stmt := stmt
			go func() {
				_, err := c.Exec(stmt)
				done <- err
			}()
			waitPending(t, srv, i+1)
		}
		for e := 0; e < (len(wave)+epochSize-1)/epochSize; e++ {
			srv.RunEpoch()
		}
		for range wave {
			if err := <-done; err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
	}
	// One all-dummy epoch so the padding path is pinned too.
	srv.RunEpoch()

	stream := srv.ObservedStream()
	st := srv.Stats()
	tracers := append([]*trace.Tracer{engTr}, readTrs...)
	run := traceRun{
		stream:      stream,
		fingerprint: trace.EventMultisetFingerprint(tracers...),
		counts:      trace.NormalizedRegionCounts(tracers...),
		real:        st.Real,
		dummy:       st.Dummy,
	}
	srv.Close()
	return run
}

func sameStream(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTraceUnchangedAcrossWorkersFlat: same flat workload at Workers=1
// and Workers=4 — identical epoch slot stream and identical engine
// untrusted-access multiset fingerprint.
func TestTraceUnchangedAcrossWorkersFlat(t *testing.T) {
	setup := func(t *testing.T, x *sql.Executor, db *core.DB) {
		t.Helper()
		if _, err := x.Execute("CREATE TABLE ft (k INTEGER, v VARCHAR(16)) CAPACITY = 256"); err != nil {
			t.Fatal(err)
		}
		rows := make([]table.Row, 96)
		for i := range rows {
			rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("v%d", i))}
		}
		if err := db.BulkLoad("ft", rows); err != nil {
			t.Fatal(err)
		}
	}
	var reads []string
	for i := 0; i < 12; i++ {
		reads = append(reads, fmt.Sprintf("SELECT COUNT(*) FROM ft WHERE k = %d", i))
	}
	waves := [][]string{
		reads, // one pure read wave: three epochs of concurrent read runs
		{
			// A mutation mid-wave: a barrier at a fixed slot. Reads queued
			// after it scan the grown table in both runs.
			"SELECT v FROM ft WHERE k = 3",
			"INSERT INTO ft VALUES (1000, 'grown')",
			"SELECT COUNT(*) FROM ft WHERE k = 1000",
			"SELECT COUNT(*) FROM ft WHERE k = 4",
			"SELECT COUNT(*) FROM ft WHERE k = 5",
		},
	}

	serial := driveWorkload(t, 1, setup, waves)
	concurrent := driveWorkload(t, 4, setup, waves)

	if !sameStream(serial.stream, concurrent.stream) {
		t.Errorf("epoch slot stream changed: workers=1 %v, workers=4 %v", serial.stream, concurrent.stream)
	}
	if serial.real != concurrent.real || serial.dummy != concurrent.dummy {
		t.Errorf("real/dummy counts changed: workers=1 %d/%d, workers=4 %d/%d",
			serial.real, serial.dummy, concurrent.real, concurrent.dummy)
	}
	if serial.fingerprint != concurrent.fingerprint {
		t.Errorf("engine untrusted-access fingerprint changed:\n workers=1 %x\n workers=4 %x\n counts: %v vs %v",
			serial.fingerprint, concurrent.fingerprint, serial.counts, concurrent.counts)
	}
}

// TestTraceUnchangedAcrossWorkersIndexed: the ORAM-backed variant. The
// leaf sequence of concurrent index reads is interleaving-dependent by
// design (that randomness is the obliviousness), so the invariant here
// is the one the leakage model states: the per-structure access counts
// are fixed by the statements alone, identical at Workers=1 and
// Workers=4, along with the epoch slot stream.
func TestTraceUnchangedAcrossWorkersIndexed(t *testing.T) {
	setup := func(t *testing.T, x *sql.Executor, db *core.DB) {
		t.Helper()
		if _, err := x.Execute("CREATE TABLE pt (k INTEGER, v VARCHAR(16)) USING INDEX(k) CAPACITY = 64"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			if _, err := x.Execute(fmt.Sprintf("INSERT INTO pt VALUES (%d, 'p%d')", i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wave1 []string
	for i := 0; i < 8; i++ {
		wave1 = append(wave1, fmt.Sprintf("SELECT v FROM pt WHERE k = %d", i))
	}
	waves := [][]string{
		wave1,
		{
			"SELECT v FROM pt WHERE k = 9",
			"INSERT INTO pt VALUES (100, 'late')",
			"SELECT v FROM pt WHERE k = 100",
			"SELECT v FROM pt WHERE k = 10",
		},
	}

	serial := driveWorkload(t, 1, setup, waves)
	concurrent := driveWorkload(t, 4, setup, waves)

	if !sameStream(serial.stream, concurrent.stream) {
		t.Errorf("epoch slot stream changed: workers=1 %v, workers=4 %v", serial.stream, concurrent.stream)
	}
	if serial.real != concurrent.real || serial.dummy != concurrent.dummy {
		t.Errorf("real/dummy counts changed: workers=1 %d/%d, workers=4 %d/%d",
			serial.real, serial.dummy, concurrent.real, concurrent.dummy)
	}
	if len(serial.counts) != len(concurrent.counts) {
		t.Fatalf("structure sets differ: workers=1 %v, workers=4 %v", serial.counts, concurrent.counts)
	}
	for region, n := range serial.counts {
		if got := concurrent.counts[region]; got != n {
			t.Errorf("access count for %s changed: workers=1 %d, workers=4 %d", region, n, got)
		}
	}
}
