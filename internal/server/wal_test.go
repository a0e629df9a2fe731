package server_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oblidb/client"
	"oblidb/internal/crypt"
	"oblidb/internal/server"
	"oblidb/internal/wal"
	"oblidb/internal/wire"
)

func openServerLog(t *testing.T, path string, key []byte) *wal.Log {
	t.Helper()
	l, err := wal.Open(path, key, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestServedTransactions drives BEGIN/COMMIT/ROLLBACK through the wire
// protocol: buffered writes acknowledge zero and stay invisible to reads
// until COMMIT lands them as one epoch-slot batch.
func TestServedTransactions(t *testing.T) {
	_, addr := startServer(t, server.Config{
		EpochSize: 4, EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	mustClientExec(t, c, "CREATE TABLE acct (id INTEGER, bal INTEGER) CAPACITY = 16")
	mustClientExec(t, c, "INSERT INTO acct VALUES (1, 100), (2, 50)")

	// Committed transaction: a transfer as two updates.
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"UPDATE acct SET bal = bal - 30 WHERE id = 1",
		"UPDATE acct SET bal = bal + 30 WHERE id = 2",
	} {
		res, err := c.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := res.Rows[0][0].AsInt(); got != 0 {
			t.Fatalf("buffered write acknowledged %d affected, want 0", got)
		}
	}
	// Reads inside the transaction see the pre-transaction snapshot.
	res, err := c.Exec("SELECT bal FROM acct WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 100 {
		t.Fatalf("read inside tx saw %d, want pre-tx 100", got)
	}
	commitRes, err := c.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := commitRes.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("COMMIT affected = %d, want 2", got)
	}
	res, err = c.Exec("SELECT bal FROM acct WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 80 {
		t.Fatalf("post-commit balance = %d, want 80", got)
	}

	// Rolled-back transaction leaves no trace.
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("DELETE FROM acct WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// DDL inside a transaction is rejected without poisoning it.
	if _, err := c.Exec("CREATE TABLE nope (a INTEGER)"); err == nil ||
		!strings.Contains(err.Error(), "DDL") {
		t.Fatalf("DDL inside tx: %v", err)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT * FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rollback lost rows: %d, want 2", len(res.Rows))
	}

	// The SQL spellings route identically to the dedicated frames.
	mustClientExec(t, c, "BEGIN")
	mustClientExec(t, c, "INSERT INTO acct VALUES (3, 10)")
	mustClientExec(t, c, "COMMIT")
	res, err = c.Exec("SELECT * FROM acct WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("SQL-spelled transaction did not commit")
	}

	// Protocol errors: COMMIT/ROLLBACK without BEGIN, double BEGIN.
	if _, err := c.Commit(ctx); err == nil {
		t.Fatal("COMMIT without BEGIN succeeded")
	}
	if err := c.Rollback(ctx); err == nil {
		t.Fatal("ROLLBACK without BEGIN succeeded")
	}
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TxBegun != 4 || st.TxCommitted != 2 || st.TxRolledBack != 2 {
		t.Fatalf("tx stats = begun %d committed %d rolled back %d, want 4/2/2",
			st.TxBegun, st.TxCommitted, st.TxRolledBack)
	}
}

// TestTransactionErrorsTakeNoEpoch pins where the router runs: in the
// session reader, before anything is queued. On a Manual server that
// never runs an epoch, a wrong-arity execution and DDL inside a
// transaction still get their error replies, and BEGIN and ROLLBACK
// their acknowledgments.
func TestTransactionErrorsTakeNoEpoch(t *testing.T) {
	srv, addr := startServer(t, server.Config{Manual: true})
	rc := dialRaw(t, addr)
	expect := func(id uint32, typ byte, errPart string) {
		t.Helper()
		resp := rc.recv()
		if resp.ID != id || resp.Type != typ || !strings.Contains(resp.Err, errPart) {
			t.Fatalf("request %d: got id=%d type=%d err=%q, want type %d with %q",
				id, resp.ID, resp.Type, resp.Err, typ, errPart)
		}
	}

	rc.send(&wire.Request{Type: wire.TPrepare, ID: 1, SQL: "SELECT COUNT(*) FROM oblidb_pad WHERE k = $1"})
	expect(1, wire.TPrepared, "")
	rc.send(&wire.Request{Type: wire.TExecPrepared, ID: 2, Handle: 1})
	expect(2, wire.TError, "parameter")
	rc.send(&wire.Request{Type: wire.TBegin, ID: 3})
	expect(3, wire.TResult, "")
	rc.send(&wire.Request{Type: wire.TExec, ID: 4, SQL: "CREATE TABLE nope (a INTEGER)"})
	expect(4, wire.TError, "DDL")
	rc.send(&wire.Request{Type: wire.TRollback, ID: 5})
	expect(5, wire.TResult, "")

	if st := srv.Stats(); st.Epochs != 0 || srv.Pending() != 0 {
		t.Fatalf("%d epoch(s) run, %d statement(s) queued; want none", st.Epochs, srv.Pending())
	}
}

// TestServerRestartRecoversWAL is the served durability contract: a
// server journaling to -wal is killed without shutdown; a new server on
// the same file serves every acknowledged commit — plain statements and
// explicit transactions — and nothing of a transaction left open.
func TestServerRestartRecoversWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	key := crypt.NewRandomKey()

	l1 := openServerLog(t, path, key)
	srv1, addr := startServer(t, server.Config{
		EpochSize: 4, EpochInterval: time.Millisecond, WAL: l1,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	mustClientExec(t, c, "CREATE TABLE notes (id INTEGER, body VARCHAR(20)) CAPACITY = 32")
	mustClientExec(t, c, "INSERT INTO notes VALUES (1, 'plain'), (2, 'doomed')")
	mustClientExec(t, c, "DELETE FROM notes WHERE id = 2")

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	mustClientExec(t, c, "INSERT INTO notes VALUES (3, 'committed tx')")
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Left open across the "crash": must not survive.
	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	mustClientExec(t, c, "INSERT INTO notes VALUES (4, 'uncommitted')")

	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WalEntries == 0 || st.WalCommits == 0 || st.WalBytes == 0 {
		t.Fatalf("journal stats not populated: %+v", st)
	}

	// Crash: no graceful shutdown, no checkpoint, engine abandoned.
	c.Close()
	srv1.Close()
	l1.Close()

	l2 := openServerLog(t, path, key)
	srv2, addr2 := startServer(t, server.Config{
		EpochSize: 4, EpochInterval: time.Millisecond, WAL: l2,
	})
	defer srv2.Close()
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	res, err := c2.Exec("SELECT * FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("recovered %d rows, want 2 (ids 1 and 3)", len(res.Rows))
	}
	for _, q := range []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM notes WHERE id = 1", 1},
		{"SELECT * FROM notes WHERE id = 2", 0},
		{"SELECT * FROM notes WHERE id = 3", 1},
		{"SELECT * FROM notes WHERE id = 4", 0},
	} {
		res, err := c2.Exec(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if len(res.Rows) != q.want {
			t.Fatalf("%s: %d rows, want %d", q.sql, len(res.Rows), q.want)
		}
	}

	// The recovered server keeps serving and journaling.
	mustClientExec(t, c2, "INSERT INTO notes VALUES (5, 'after restart')")
	res, err = c2.Exec("SELECT * FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("post-restart insert: %d rows, want 3", len(res.Rows))
	}
	l2.Close()
}

func mustClientExec(t *testing.T, c *client.Conn, q string) {
	t.Helper()
	if _, err := c.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}
