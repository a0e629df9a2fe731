package main

import (
	"strings"
	"testing"
	"time"

	"oblidb/internal/server"
	"oblidb/internal/table"
)

// driveShell runs the shell over a scripted session and returns its
// output.
func driveShell(t *testing.T, script string, connect string) string {
	t.Helper()
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, 0, 0, false, connect); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestShellEmbeddedSession(t *testing.T) {
	script := strings.Join([]string{
		`\help`,
		"CREATE TABLE t (id INTEGER, name VARCHAR(8))",
		"INSERT INTO t VALUES (1, 'alice'), (2, 'bob')",
		"SELECT name FROM t WHERE id = 2",
		"SELECT id FROM t WHERE id >= 1 ORDER BY id DESC LIMIT 1",
		"SELECT BROKEN SYNTAX !!",
		`\explain SELECT name FROM t WHERE id = $1 ORDER BY id LIMIT 1`,
		`\tables`,
		`\mem`,
		`\stats`,
		`\q`,
	}, "\n") + "\n"
	out := driveShell(t, script, "")
	for _, want := range []string{
		"ObliDB shell",
		"Statements:",       // \help
		`"bob"`,             // the select's result row
		"error:",            // the broken statement reports, not aborts
		"  t",               // \tables
		"oblivious memory:", // \mem
		"plan cache:",       // \stats works embedded now
		"operator picks:",   // \stats pick counters
		"Limit 1",           // \explain renders the plan tree
		"Sort id",
		"sort=", // the ORDER BY execution was tallied
	} {
		if !strings.Contains(out, want) {
			t.Errorf("embedded session output missing %q:\n%s", want, out)
		}
	}
}

func TestShellConnectSession(t *testing.T) {
	srv, err := server.New(server.Config{EpochSize: 4, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.ListenAndServe("127.0.0.1:0")
	for i := 0; srv.Addr() == nil; i++ {
		if i > 2000 {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}

	script := strings.Join([]string{
		"CREATE TABLE c (k INTEGER)",
		"INSERT INTO c VALUES (5), (6)",
		"SELECT COUNT(*) FROM c",
		"SELECT k FROM c ORDER BY k DESC LIMIT 1",
		`\explain SELECT k FROM c ORDER BY k DESC LIMIT 1`,
		`\tables`, // unavailable over the wire
		`\stats`,
		"exit",
	}, "\n") + "\n"
	out := driveShell(t, script, srv.Addr().String())
	for _, want := range []string{
		"connected to",
		"COUNT(*)",
		"2",           // the count
		"6",           // the ORDER BY ... LIMIT result
		"Sort k DESC", // \explain travels the wire
		"unavailable in connect mode",
		"epochs:",
		"plan cache:", // the server publishes its cache counters
	} {
		if !strings.Contains(out, want) {
			t.Errorf("connect session output missing %q:\n%s", want, out)
		}
	}
}

func TestShellEOFExitsClean(t *testing.T) {
	// EOF without \q is a clean exit (scanner.Err() == nil), not an
	// error.
	out := driveShell(t, "SELECT COUNT(*) FROM nothing\n", "")
	if !strings.Contains(out, "error:") {
		t.Fatalf("missing-table error not reported:\n%s", out)
	}
}

func TestPrintResultTruncatesLongResults(t *testing.T) {
	var out strings.Builder
	rows := make([]table.Row, 50)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i))}
	}
	printResult(&out, []string{"k"}, rows)
	if !strings.Contains(out.String(), "(50 rows total)") {
		t.Fatalf("long result not truncated:\n%s", out.String())
	}
}

// TestShellEmbeddedTransactions drives the embedded engine through the
// shared transaction router: buffered writes stay invisible until
// COMMIT, ROLLBACK discards them, and DDL inside a transaction fails.
func TestShellEmbeddedTransactions(t *testing.T) {
	steps := []struct{ stmt, want string }{
		{"CREATE TABLE t (id INTEGER, name VARCHAR(8))", "affected\n0"},
		{"INSERT INTO t VALUES (1, 'a')", "affected\n1"},
		{"BEGIN", "affected\n0"},
		{"INSERT INTO t VALUES (2, 'b')", "affected\n0"},
		{"SELECT COUNT(*) FROM t", "COUNT(*)\n1"}, // the pre-transaction snapshot
		{"COMMIT", "affected\n1"},
		{"SELECT COUNT(*) FROM t", "COUNT(*)\n2"},
		{"BEGIN", "affected\n0"},
		{"DELETE FROM t", "affected\n0"},
		{"CREATE TABLE u (a INTEGER)", "error: sql: DDL cannot run inside a transaction"},
		{"ROLLBACK", "affected\n0"},
		{"SELECT COUNT(*) FROM t", "COUNT(*)\n2"},
	}
	var script strings.Builder
	for _, s := range steps {
		script.WriteString(s.stmt + "\n")
	}
	// Each statement's output follows its prompt; chunk 0 is the banner
	// and the last chunk is the EOF prompt.
	chunks := strings.Split(driveShell(t, script.String(), ""), "oblidb> ")
	if len(chunks) != len(steps)+2 {
		t.Fatalf("got %d prompts for %d statements:\n%s", len(chunks)-1, len(steps), strings.Join(chunks, "oblidb> "))
	}
	for i, s := range steps {
		if got := strings.TrimSpace(chunks[i+1]); got != s.want {
			t.Errorf("%s: got %q, want %q", s.stmt, got, s.want)
		}
	}
}
