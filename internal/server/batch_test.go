package server_test

import (
	"context"
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
// consecutive INSERT/UPDATE/DELETE and COMMIT slots as one engine
// batch, each COMMIT one atomic group of it.

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
// batchSetup, with two client connections: c for autocommit
// statements, tx for a transaction.
type batchRig struct {
	srv  *server.Server
	c    *client.Conn
	tx   *client.Conn
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
	r.srv = srv
	if r.c, err = client.Dial(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.c.Close() })
	if r.tx, err = client.Dial(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.tx.Close() })
	return r
}

// begin opens a transaction on the rig's tx connection and buffers
// writes in it, each acknowledged at once without an epoch slot; a
// "COMMIT" among the next epoch's statements commits it.
func (r *batchRig) begin(t *testing.T, writes []string) {
	t.Helper()
	if err := r.tx.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, w := range writes {
		if _, err := r.tx.Exec(w); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
}

// answer is one statement's reply.
type answer struct {
	res *client.Result
	err error
}

// epoch queues stmts in order, runs one epoch and returns each reply.
// A "COMMIT" commits the transaction on the tx connection.
func (r *batchRig) epoch(t *testing.T, stmts []string) []answer {
	t.Helper()
	out := make([]answer, len(stmts))
	var wg sync.WaitGroup
	for i, s := range stmts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s == "COMMIT" {
				out[i].res, out[i].err = r.tx.Commit(context.Background())
			} else {
				out[i].res, out[i].err = r.c.Exec(s)
			}
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
	outs, errs, state := oneAtATime(t, stmts, nil)

	r := newBatchRig(t, len(stmts), "v", nil)
	commits := r.srv.DB().WALStats().Commits
	got := r.epoch(t, stmts)
	checkAnswers(t, stmts, got, outs, errs)
	if got[7].err == nil || oberr.CodeOf(got[7].err) != oberr.CodeUnknown {
		t.Fatalf("invalid UPDATE answered %v, want its own untyped error", got[7].err)
	}
	if g := tableState(t, r.srv.DB(), "kv"); g != state {
		t.Fatalf("served table\n%s\none at a time\n%s", g, state)
	}
	if n := r.srv.DB().WALStats().Commits - commits; n != writeRuns {
		t.Fatalf("epoch made %d journal commits, want one per write run (%d)", n, writeRuns)
	}
}

// TestWriteRunTraceOblivious: two epochs with the same statement kinds
// and tables but different data — loaded payloads, inserted rows,
// update values, a committed transaction's writes — leave
// byte-identical engine traces.
func TestWriteRunTraceOblivious(t *testing.T) {
	run := func(p string) *trace.Tracer {
		r := newBatchRig(t, 8, p, nil)
		r.begin(t, []string{
			fmt.Sprintf("INSERT INTO kv VALUES (103, '%s-tx')", p),
			fmt.Sprintf("UPDATE kv SET v = '%s-txu' WHERE k = 11", p),
		})
		r.tr.Reset()
		r.epoch(t, []string{
			fmt.Sprintf("INSERT INTO kv VALUES (100, '%s-new')", p),
			"DELETE FROM kv WHERE k = 4",
			fmt.Sprintf("UPDATE kv SET v = '%s-upd' WHERE k = 9", p),
			"SELECT * FROM kv WHERE k = 9",
			fmt.Sprintf("INSERT INTO kv VALUES (101, '%s-two'), (102, '%s-three')", p, p),
			"COMMIT",
			fmt.Sprintf("DELETE FROM kv WHERE v = '%s-new'", p),
		})
		return r.tr
	}
	if d := trace.Diff(run("a"), run("bb")); d != "" {
		t.Fatalf("write-run trace depends on data: %s", d)
	}
}

// TestWriteRunFaultRollsBackWholeRun injects one store fault into the
// middle of a write run's batched flat pass, for a run of autocommit
// writes and for one with a COMMIT among them. Every statement of the
// run answers CodeStoreFault, the rows are unchanged, the engine is not
// latched and its journal recovers to the same rows. Retried, the run
// lands exactly as it does without the fault.
func TestWriteRunFaultRollsBackWholeRun(t *testing.T) {
	for _, tc := range []struct {
		name            string
		stmts, txWrites []string
	}{
		{"autocommit", []string{
			"INSERT INTO kv VALUES (100, 'new')",
			"DELETE FROM kv WHERE k = 1",
			"UPDATE kv SET v = 'upd' WHERE k = 2",
			"INSERT INTO kv VALUES (101, 'newer')",
			"DELETE FROM kv WHERE k = 100",
		}, nil},
		{"commit", []string{
			"INSERT INTO kv VALUES (100, 'new')",
			"COMMIT",
			"UPDATE kv SET v = 'upd' WHERE k = 2",
		}, []string{"INSERT INTO kv VALUES (101, 'tx')", "DELETE FROM kv WHERE k = 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) { faultRollsBackWholeRun(t, tc.stmts, tc.txWrites) })
	}
}

func faultRollsBackWholeRun(t *testing.T, stmts, txWrites []string) {
	begin := func(r *batchRig) {
		if txWrites != nil {
			r.begin(t, txWrites)
		}
	}
	// The fault-free twin locates the pass: the run's last accesses are
	// the flat pass, one read and one write per block.
	counter := faultstore.NewInjector(faultstore.Schedule{})
	twin := newBatchRig(t, len(stmts), "v", counter)
	before := counter.Accesses()
	begin(twin)
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
	begin(r)
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

	begin(r)
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

// oneAtATime executes stmts one at a time on an unjournaled engine
// loaded like the rigs', a "COMMIT" committing txWrites as one
// transaction, and returns each answer (canonical rows or error) and
// the final table.
func oneAtATime(t *testing.T, stmts, txWrites []string) ([]string, []error, string) {
	t.Helper()
	ref := core.MustOpen(core.Config{Seed: batchSeed, RowsPerBlock: 4})
	batchSetup(t, ref, "v")
	x := sql.New(ref)
	outs, errs := make([]string, len(stmts)), make([]error, len(stmts))
	for i, s := range stmts {
		var res *core.Result
		if s == "COMMIT" {
			var st sql.TxState
			if err := st.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, w := range txWrites {
				prep, err := x.Prepare(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Buffer(prep, nil); err != nil {
					t.Fatal(err)
				}
			}
			res, errs[i] = st.Commit(sql.Local(x))
		} else {
			res, errs[i] = x.Execute(s)
		}
		if errs[i] == nil {
			outs[i] = canon(res.Cols, res.Rows)
		}
	}
	return outs, errs, tableState(t, ref, "kv")
}

// checkAnswers fails unless the served replies match oneAtATime's.
func checkAnswers(t *testing.T, stmts []string, got []answer, outs []string, errs []error) {
	t.Helper()
	for i, s := range stmts {
		if (errs[i] != nil) != (got[i].err != nil) {
			t.Fatalf("%s: served error %v, one at a time %v", s, got[i].err, errs[i])
		}
		if errs[i] == nil {
			if g := canon(got[i].res.Cols, got[i].res.Rows); g != outs[i] {
				t.Fatalf("%s: served\n%s\none at a time\n%s", s, g, outs[i])
			}
		}
	}
}

// TestWriteRunTxAnswersAsOneAtATime: a COMMIT rides the epoch's write
// run as one group. A journaled epoch of [INSERT, COMMIT of two writes,
// UPDATE] — the transaction deleting the row the INSERT before it
// added, the UPDATE rewriting one the transaction inserted — answers
// as the statements do one at a time, leaves the same table, and makes
// one journal commit.
func TestWriteRunTxAnswersAsOneAtATime(t *testing.T) {
	stmts := []string{
		"INSERT INTO kv VALUES (100, 'new')",
		"COMMIT",
		"UPDATE kv SET v = 'upd' WHERE k = 101",
	}
	txWrites := []string{"INSERT INTO kv VALUES (101, 'tx')", "DELETE FROM kv WHERE k = 100"}
	outs, errs, state := oneAtATime(t, stmts, txWrites)

	r := newBatchRig(t, len(stmts), "v", nil)
	r.begin(t, txWrites)
	db := r.srv.DB()
	commits := db.WALStats().Commits
	got := r.epoch(t, stmts)
	checkAnswers(t, stmts, got, outs, errs)
	if g := tableState(t, db, "kv"); g != state {
		t.Fatalf("served table\n%s\none at a time\n%s", g, state)
	}
	if n := db.WALStats().Commits - commits; n != 1 {
		t.Fatalf("epoch made %d journal commits, want 1", n)
	}
	if st := r.srv.Stats(); st.TxCommitted != 1 || st.TxAborted != 0 {
		t.Fatalf("tx committed %d, aborted %d; want 1, 0", st.TxCommitted, st.TxAborted)
	}
}

// TestWriteRunTxErrorIsolated: a transaction whose second write fails
// validation rolls back alone — its first write with it — while the
// autocommit writes beside it in the run commit, with one journal
// commit for the run.
func TestWriteRunTxErrorIsolated(t *testing.T) {
	stmts := []string{
		"INSERT INTO kv VALUES (100, 'new')",
		"COMMIT",
		"DELETE FROM kv WHERE k = 3",
	}
	txWrites := []string{
		"INSERT INTO kv VALUES (101, 'tx')",
		"UPDATE kv SET v = 'far too long for the column' WHERE k = 7",
	}
	outs, errs, state := oneAtATime(t, stmts, txWrites)

	r := newBatchRig(t, len(stmts), "v", nil)
	r.begin(t, txWrites)
	db := r.srv.DB()
	commits := db.WALStats().Commits
	got := r.epoch(t, stmts)
	checkAnswers(t, stmts, got, outs, errs)
	if got[1].err == nil || oberr.CodeOf(got[1].err) != oberr.CodeUnknown {
		t.Fatalf("COMMIT answered %v, want the invalid UPDATE's untyped error", got[1].err)
	}
	if g := tableState(t, db, "kv"); g != state {
		t.Fatalf("served table\n%s\none at a time\n%s", g, state)
	}
	if n := db.WALStats().Commits - commits; n != 1 {
		t.Fatalf("epoch made %d journal commits, want 1", n)
	}
	if st := r.srv.Stats(); st.TxCommitted != 0 || st.TxAborted != 1 {
		t.Fatalf("tx committed %d, aborted %d; want 0, 1", st.TxCommitted, st.TxAborted)
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
