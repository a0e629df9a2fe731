package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/metrics"
	"oblidb/internal/server"
)

// runOne submits one statement and drives exactly one manual epoch, so
// every server in a comparison sees an identical epoch/slot schedule.
func runOne(t *testing.T, srv *server.Server, exec func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- exec() }()
	waitPending(t, srv, 1)
	srv.RunEpoch()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMetricsObliviousness is the leakage pin for the whole metric
// catalog: two served workloads with identical statement shapes, sizes,
// and epoch schedules — but different data values — must produce
// byte-identical /metrics expositions, timing buckets included. Any
// diff means some exported value is a function of data, not of the
// public quantities DESIGN.md §13 allows.
func TestMetricsObliviousness(t *testing.T) {
	fixedKey := make([]byte, 32)
	expositions := make([]string, 2)
	// Same statement text lengths, same matching counts (two rows per
	// bound argument), same result widths — only the values differ.
	workloads := []struct {
		insert string
		arg    int
	}{
		{"INSERT INTO t VALUES (1, 11, 'aa'), (2, 11, 'bb'), (3, 22, 'cc'), (4, 22, 'dd')", 11},
		{"INSERT INTO t VALUES (5, 77, 'ee'), (6, 77, 'ff'), (7, 88, 'gg'), (8, 88, 'hh')", 77},
	}
	for i, w := range workloads {
		srv, addr := startServer(t, server.Config{
			Engine:        core.Config{Key: fixedKey},
			EpochSize:     2,
			EpochInterval: time.Second, // manual epochs finish well within one interval
			Manual:        true,
		})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		runOne(t, srv, func() error {
			_, err := c.Exec("CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8))")
			return err
		})
		runOne(t, srv, func() error {
			_, err := c.Exec(w.insert)
			return err
		})
		st, err := c.Prepare("SELECT name FROM t WHERE v = $1")
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			runOne(t, srv, func() error {
				res, err := st.Exec(w.arg)
				if err != nil {
					return err
				}
				if len(res.Rows) != 2 {
					t.Errorf("workload %d rep %d: %d rows, want 2", i, rep, len(res.Rows))
				}
				return nil
			})
		}
		// One idle epoch so dummy padding and the padding ratio are
		// exercised too.
		srv.RunEpoch()

		var sb strings.Builder
		if err := srv.Metrics().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		expositions[i] = sb.String()

		if problems, err := metrics.Lint(strings.NewReader(expositions[i])); err != nil || len(problems) != 0 {
			t.Errorf("workload %d exposition fails lint: %v %v", i, problems, err)
		}
		c.Close()
		srv.Close()
	}
	if expositions[0] != expositions[1] {
		t.Fatalf("metrics depend on data values:\n--- workload 0 ---\n%s\n--- workload 1 ---\n%s",
			expositions[0], expositions[1])
	}
	// Guard against a vacuous pass: the exposition must show real work.
	for _, want := range []string{
		"oblidb_epochs_total 6",
		`oblidb_statements_total{kind="select"} 3`,
		"oblidb_statements_dummy_total",
		"oblidb_enclave_blocks_sealed_total",
	} {
		if !strings.Contains(expositions[0], want) {
			t.Errorf("exposition missing %q:\n%s", want, expositions[0])
		}
	}
}

// TestDebugEndpoint scrapes a live debug listener: /metrics must be a
// lint-clean Prometheus exposition, /debug/vars valid JSON, and the
// pprof index reachable. Close must take the listener down with the
// server.
func TestDebugEndpoint(t *testing.T) {
	srv, addr := startServer(t, server.Config{EpochSize: 2, EpochInterval: time.Millisecond})
	dbgAddr, err := srv.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE d (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + dbgAddr.String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if problems, err := metrics.Lint(bytes.NewReader(body)); err != nil || len(problems) != 0 {
		t.Fatalf("/metrics fails lint: %v %v", problems, err)
	}
	if !strings.Contains(string(body), "oblidb_epochs_total") {
		t.Fatalf("/metrics missing catalog:\n%s", body)
	}

	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := snap["oblidb_epochs_total"]; !ok {
		t.Fatalf("/debug/vars missing oblidb_epochs_total: %v", snap)
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", resp.StatusCode)
	}

	c.Close()
	srv.Close()
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("debug listener still serving after Close")
	}
}

// TestSlowStatementLog pins the slow-statement path: a statement that
// waits past the threshold increments the counter and is logged by its
// literal-free shape — the log line must carry ? placeholders, never
// the statement's literals.
func TestSlowStatementLog(t *testing.T) {
	var logBuf bytes.Buffer
	srv, addr := startServer(t, server.Config{
		EpochSize:           1,
		EpochInterval:       time.Second,
		Manual:              true,
		SlowStatementEpochs: 1,
		Logger:              slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	runOne(t, srv, func() error {
		_, err := c.Exec("CREATE TABLE s (id INTEGER)")
		return err
	})
	// Two statements into one-slot epochs: the second sits through a
	// full epoch before executing, so it waits 1 epoch ≥ threshold.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Exec("SELECT COUNT(*) FROM s WHERE id = 4242")
			done <- err
		}()
	}
	waitPending(t, srv, 2)
	srv.RunEpoch()
	srv.RunEpoch()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := srv.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "oblidb_slow_statements_total 1") {
		t.Errorf("slow counter not incremented:\n%s", sb.String())
	}
	// Read the log only after Close: the session goroutines log lines
	// as they unwind, and Close waiting them out is the happens-before
	// edge that makes the buffer safe to read.
	c.Close()
	srv.Close()
	logged := logBuf.String()
	if !strings.Contains(logged, "slow statement") {
		t.Fatalf("no slow-statement log line:\n%s", logged)
	}
	if strings.Contains(logged, "4242") {
		t.Fatalf("slow-statement log leaked a literal:\n%s", logged)
	}
	if !strings.Contains(logged, "?") {
		t.Fatalf("slow-statement log shape has no placeholder:\n%s", logged)
	}
}

// TestConnStats pins the client's local counters: frames and bytes in
// both directions, pending, and the sticky last error after the server
// goes away.
func TestConnStats(t *testing.T) {
	srv, addr := startServer(t, server.Config{EpochSize: 2, EpochInterval: time.Millisecond})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.FramesSent != 0 || st.FramesReceived != 0 || st.LastError != "" {
		t.Fatalf("fresh connection has non-zero stats: %+v", st)
	}
	if _, err := c.Exec("CREATE TABLE cs (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO cs VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.FramesSent != 2 || st.FramesReceived != 2 {
		t.Fatalf("frames sent/received = %d/%d, want 2/2", st.FramesSent, st.FramesReceived)
	}
	if st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Fatalf("byte counters not moving: %+v", st)
	}
	if st.Pending != 0 || st.LastError != "" {
		t.Fatalf("healthy idle connection: %+v", st)
	}
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, err := c.Exec("SELECT COUNT(*) FROM cs"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exec kept succeeding after server close")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); c.Stats().LastError == ""; {
		if time.Now().After(deadline) {
			t.Fatal("last error never recorded after connection loss")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
}

// TestStatsMetricsJSON checks the wire.Stats v3 extension end to end:
// client.ServerStats carries the same snapshot the registry renders.
func TestStatsMetricsJSON(t *testing.T) {
	srv, addr := startServer(t, server.Config{EpochSize: 2, EpochInterval: time.Millisecond})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE mj (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MetricsJSON == "" {
		t.Fatal("v3 server returned no MetricsJSON")
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(st.MetricsJSON), &snap); err != nil {
		t.Fatalf("MetricsJSON not JSON: %v", err)
	}
	for _, key := range []string{"oblidb_epochs_total", "oblidb_statements_total", "oblidb_enclave_blocks_sealed_total"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("MetricsJSON missing %q", key)
		}
	}
	if epochs, ok := snap["oblidb_epochs_total"].(float64); !ok || uint64(epochs) > st.Epochs {
		// The snapshot is taken inside the same Stats call; it can only
		// trail the header counter, never lead it.
		t.Errorf("snapshot epochs %v inconsistent with header %d", snap["oblidb_epochs_total"], st.Epochs)
	}
}
