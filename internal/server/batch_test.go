package server_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/enclave"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/server"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// These tests pin the epoch write runs: a Manual server over a
// journaled flat-and-index engine executes each maximal run of
// consecutive INSERT/UPDATE/DELETE slots as one engine batch.

const batchSeed = 9

// batchSetup creates and loads the kv table every batch test starts
// from; prefix sets the loaded payloads.
func batchSetup(t *testing.T, db *core.DB, prefix string) {
	t.Helper()
	if _, err := sql.New(db).Execute("CREATE TABLE kv (k INTEGER, v VARCHAR(16)) INDEX ON k CAPACITY = 64"); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 40)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("%s%d", prefix, i))}
	}
	if err := db.BulkLoad("kv", rows); err != nil {
		t.Fatal(err)
	}
}

// batchRig is a Manual server over a journaled engine, loaded by
// batchSetup, with one client connection.
type batchRig struct {
	srv  *server.Server
	c    *client.Conn
	tr   *trace.Tracer
	key  []byte
	path string
}

func newBatchRig(t *testing.T, epochSize int, prefix string, inj enclave.FaultInjector) *batchRig {
	t.Helper()
	r := &batchRig{tr: trace.New(), key: crypt.NewRandomKey(), path: filepath.Join(t.TempDir(), "batch.wal")}
	l, err := wal.Open(r.path, r.key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() }) // after the server's own cleanup
	eng := core.Config{Key: r.key, Seed: batchSeed, RowsPerBlock: 4, Tracer: r.tr, Fault: inj}
	srv, addr := startServer(t, server.Config{EpochSize: epochSize, Manual: true, Engine: eng, WAL: l})
	batchSetup(t, srv.DB(), prefix)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.srv, r.c = srv, c
	return r
}

// answer is one statement's reply.
type answer struct {
	res *client.Result
	err error
}

// epoch queues stmts in order, runs one epoch and returns each reply.
func (r *batchRig) epoch(t *testing.T, stmts []string) []answer {
	t.Helper()
	out := make([]answer, len(stmts))
	var wg sync.WaitGroup
	for i, s := range stmts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].res, out[i].err = r.c.Exec(s)
		}()
		waitPending(t, r.srv, i+1)
	}
	r.srv.RunEpoch()
	wg.Wait()
	return out
}

// tableState renders a table's rows in canonical order.
func tableState(t *testing.T, db *core.DB, name string) string {
	t.Helper()
	res, err := sql.New(db).Execute("SELECT * FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	return canon(res.Cols, res.Rows)
}

// TestWriteRunAnswersAsOneAtATime: an epoch mixing INSERT, DELETE,
// UPDATE and SELECT — a DELETE and an UPDATE of rows inserted earlier
// in the same run, and an UPDATE that fails validation — answers every
// statement exactly as executing them one at a time does, leaves the
// same table, and commits the journal once per write run.
func TestWriteRunAnswersAsOneAtATime(t *testing.T) {
	stmts := []string{
		"INSERT INTO kv VALUES (100, 'new')",
		"INSERT INTO kv VALUES (101, 'newer')",
		"DELETE FROM kv WHERE k = 100",
		"UPDATE kv SET v = 'upd' WHERE k = 5",
		"UPDATE kv SET v = 'x' WHERE k = 101",
		"SELECT * FROM kv WHERE k = 101", // ends the first write run
		"DELETE FROM kv WHERE k = 3",
		"UPDATE kv SET v = 'far too long for the column' WHERE k = 7",
		"INSERT INTO kv VALUES (3, 'again'), (102, 'two')",
		"DELETE FROM kv WHERE k > 100",
	}
	const writeRuns = 2

	ref := core.MustOpen(core.Config{Seed: batchSeed, RowsPerBlock: 4})
	batchSetup(t, ref, "v")
	refX := sql.New(ref)

	r := newBatchRig(t, len(stmts), "v", nil)
	commits := r.srv.DB().WALStats().Commits
	got := r.epoch(t, stmts)
	for i, s := range stmts {
		want, werr := refX.Execute(s)
		if (werr != nil) != (got[i].err != nil) {
			t.Fatalf("%s: served error %v, one at a time %v", s, got[i].err, werr)
		}
		if werr != nil {
			continue
		}
		if w, g := canon(want.Cols, want.Rows), canon(got[i].res.Cols, got[i].res.Rows); w != g {
			t.Fatalf("%s: served\n%s\none at a time\n%s", s, g, w)
		}
	}
	if got[7].err == nil || oberr.CodeOf(got[7].err) != oberr.CodeUnknown {
		t.Fatalf("invalid UPDATE answered %v, want its own untyped error", got[7].err)
	}
	if w, g := tableState(t, ref, "kv"), tableState(t, r.srv.DB(), "kv"); w != g {
		t.Fatalf("served table\n%s\none at a time\n%s", g, w)
	}
	if n := r.srv.DB().WALStats().Commits - commits; n != writeRuns {
		t.Fatalf("epoch made %d journal commits, want one per write run (%d)", n, writeRuns)
	}
}

// TestWriteRunTraceOblivious: two epochs with the same statement kinds
// and tables but different data — loaded payloads, inserted rows,
// update values — leave byte-identical engine traces.
func TestWriteRunTraceOblivious(t *testing.T) {
	run := func(p string) *trace.Tracer {
		r := newBatchRig(t, 8, p, nil)
		r.tr.Reset()
		r.epoch(t, []string{
			fmt.Sprintf("INSERT INTO kv VALUES (100, '%s-new')", p),
			"DELETE FROM kv WHERE k = 4",
			fmt.Sprintf("UPDATE kv SET v = '%s-upd' WHERE k = 9", p),
			"SELECT * FROM kv WHERE k = 9",
			fmt.Sprintf("INSERT INTO kv VALUES (101, '%s-two'), (102, '%s-three')", p, p),
			fmt.Sprintf("DELETE FROM kv WHERE v = '%s-new'", p),
		})
		return r.tr
	}
	if d := trace.Diff(run("a"), run("bb")); d != "" {
		t.Fatalf("write-run trace depends on data: %s", d)
	}
}

// TestWriteRunFaultRollsBackWholeRun injects one store fault into the
// middle of a write run's batched flat pass. Every statement of the run
// answers CodeStoreFault, the rows are unchanged, the engine is not
// latched and its journal recovers to the same rows. Retried, the run
// lands exactly as it does without the fault.
func TestWriteRunFaultRollsBackWholeRun(t *testing.T) {
	stmts := []string{
		"INSERT INTO kv VALUES (100, 'new')",
		"DELETE FROM kv WHERE k = 1",
		"UPDATE kv SET v = 'upd' WHERE k = 2",
		"INSERT INTO kv VALUES (101, 'newer')",
		"DELETE FROM kv WHERE k = 100",
	}
	// The fault-free twin locates the pass: the run's last accesses are
	// the flat pass, one read and one write per block.
	counter := faultstore.NewInjector(faultstore.Schedule{})
	twin := newBatchRig(t, len(stmts), "v", counter)
	before := counter.Accesses()
	twin.tr.Reset()
	want := twin.epoch(t, stmts)
	end := counter.Accesses()
	tab, err := twin.srv.DB().Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	blocks := tab.Flat().NumBlocks()
	events := twin.tr.Events()
	pass := events[len(events)-2*blocks:]
	for i, e := range pass {
		if e.Region != pass[0].Region || int(e.Index) != i/2 || (e.Op == trace.Write) != (i%2 == 1) {
			t.Fatalf("the run does not end with one flat pass: event %d of its tail is %v", i, e)
		}
	}

	inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{end - uint64(blocks)}, MaxFaults: 1})
	r := newBatchRig(t, len(stmts), "v", inj)
	if inj.Accesses() != before {
		t.Fatalf("rigs diverged before the run: %d vs %d accesses", inj.Accesses(), before)
	}
	db := r.srv.DB()
	rows := tableState(t, db, "kv")
	commits := db.WALStats().Commits
	for i, a := range r.epoch(t, stmts) {
		if oberr.CodeOf(a.err) != oberr.CodeStoreFault {
			t.Fatalf("%s: answered %v, want CodeStoreFault", stmts[i], a.err)
		}
	}
	if inj.Injected() != 1 {
		t.Fatalf("%d faults injected, want 1", inj.Injected())
	}
	if err := db.Broken(); err != nil {
		t.Fatalf("engine latched after a contained fault: %v", err)
	}
	if got := tableState(t, db, "kv"); got != rows {
		t.Fatalf("faulted run changed the table:\n%s\nwant\n%s", got, rows)
	}
	if db.WALStats().Commits != commits {
		t.Fatal("faulted run committed to the journal")
	}
	l, err := wal.Open(r.path, r.key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := core.MustOpen(core.Config{Key: r.key, Seed: batchSeed, RowsPerBlock: 4})
	if err := rec.Recover(l); err != nil {
		t.Fatal(err)
	}
	if got := tableState(t, rec, "kv"); got != rows {
		t.Fatalf("journal recovers\n%s\nwant\n%s", got, rows)
	}

	for i, a := range r.epoch(t, stmts) {
		if a.err != nil || want[i].err != nil {
			t.Fatalf("%s: retry answered %v, fault-free %v", stmts[i], a.err, want[i].err)
		}
		if g, w := canon(a.res.Cols, a.res.Rows), canon(want[i].res.Cols, want[i].res.Rows); g != w {
			t.Fatalf("%s: retry answered\n%s\nfault-free\n%s", stmts[i], g, w)
		}
	}
	if g, w := tableState(t, db, "kv"), tableState(t, twin.srv.DB(), "kv"); g != w {
		t.Fatalf("retried run left\n%s\nfault-free\n%s", g, w)
	}
}

// TestPadTableOneBlock: the padding table holds one row at capacity
// one, so at RowsPerBlock 1 it is one block, and a Workers 4 engine
// serves all-dummy epochs entirely on read slots — the dummy never
// splits and never takes the exclusive lock.
func TestPadTableOneBlock(t *testing.T) {
	srv, _ := startServer(t, server.Config{
		EpochSize: 8,
		Manual:    true,
		Engine:    core.Config{Workers: 4, RowsPerBlock: 1},
	})
	pad, err := srv.DB().Table("oblidb_pad")
	if err != nil {
		t.Fatal(err)
	}
	if n := pad.Flat().NumBlocks(); n != 1 {
		t.Fatalf("pad table has %d blocks, want 1", n)
	}
	before := srv.DB().LockStats()
	for i := 0; i < 50; i++ {
		srv.RunEpoch()
	}
	after := srv.DB().LockStats()
	if n := after.ExclusiveAcquires - before.ExclusiveAcquires; n != 0 {
		t.Fatalf("50 all-dummy epochs took %d exclusive acquisitions, want 0", n)
	}
	if after.SharedAcquires == before.SharedAcquires {
		t.Fatal("all-dummy epochs ran no reads")
	}
}
