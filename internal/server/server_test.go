package server_test

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/server"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wire"
	"oblidb/internal/workload"
)

// startServer runs a server on a loopback listener and returns it with
// its dialable address.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0") }()
	for i := 0; srv.Addr() == nil; i++ {
		select {
		case err := <-serveErr:
			t.Fatalf("ListenAndServe: %v", err)
		default:
		}
		if i > 1000 {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, srv.Addr().String()
}

// mixStatements builds a deterministic SQL statement stream for one
// workload mix against one table: the L1–L5 op categories of Figure 12
// rendered as SQL.
func mixStatements(mix workload.Mix, tbl string, rows, n int, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0x51))
	span := int64(rows)
	nextKey := span
	stmts := make([]string, 0, n+2)

	create := fmt.Sprintf("CREATE TABLE %s (k INTEGER, payload VARCHAR(32)) INDEX ON k CAPACITY = %d", tbl, 4*rows)
	var tuples []string
	for k := int64(0); k < span; k++ {
		tuples = append(tuples, fmt.Sprintf("(%d, 'payload-%016d')", k, k))
	}
	stmts = append(stmts, create, fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(tuples, ", ")))

	for _, cat := range mix.Ops(n, seed) {
		switch cat {
		case "point":
			stmts = append(stmts, fmt.Sprintf("SELECT * FROM %s WHERE k = %d", tbl, rng.Int64N(span)))
		case "small":
			lo := rng.Int64N(span)
			stmts = append(stmts, fmt.Sprintf("SELECT * FROM %s WHERE k >= %d AND k <= %d", tbl, lo, lo+9))
		case "large":
			width := span / 20
			if width < 1 {
				width = 1
			}
			lo := rng.Int64N(span)
			stmts = append(stmts, fmt.Sprintf("SELECT * FROM %s WHERE k >= %d AND k <= %d", tbl, lo, lo+width-1))
		case "insert":
			k := nextKey
			nextKey++
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'payload-%016d')", tbl, k, k))
		case "delete":
			stmts = append(stmts, fmt.Sprintf("DELETE FROM %s WHERE k = %d", tbl, rng.Int64N(span)))
		}
	}
	return stmts
}

// canon renders a result as an order-independent multiset: operators are
// free to order output rows differently across runs, and that order is
// not part of query semantics.
func canon(cols []string, rows []table.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(cols, "|") + "\n" + strings.Join(lines, "\n")
}

// TestServedMixesMatchDirectExecution is the serving path's end-to-end
// test: five concurrent client connections each run one of the L1–L5
// workload mixes as SQL through the epoch scheduler, and every result
// must equal the same statement stream executed directly against a
// private engine.
func TestServedMixesMatchDirectExecution(t *testing.T) {
	_, addr := startServer(t, server.Config{
		EpochSize:     4,
		EpochInterval: time.Millisecond,
	})

	const rows, nOps = 48, 16
	var wg sync.WaitGroup
	errs := make(chan error, len(workload.Mixes))
	for mi, mix := range workload.Mixes {
		wg.Add(1)
		go func(mi int, mix workload.Mix) {
			defer wg.Done()
			errs <- runMixClient(addr, mi, mix, rows, nOps)
		}(mi, mix)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// runMixClient executes one mix over the wire and over a direct engine,
// comparing statement by statement.
func runMixClient(addr string, mi int, mix workload.Mix, rows, nOps int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("%s: dial: %w", mix.Name, err)
	}
	defer c.Close()

	direct, err := core.Open(core.Config{})
	if err != nil {
		return fmt.Errorf("%s: direct engine: %w", mix.Name, err)
	}
	directExec := sql.New(direct)

	stmts := mixStatements(mix, fmt.Sprintf("w%d", mi), rows, nOps, 1000+uint64(mi))
	for si, stmt := range stmts {
		served, err := c.Exec(stmt)
		if err != nil {
			return fmt.Errorf("%s stmt %d (%s): served: %w", mix.Name, si, stmt, err)
		}
		want, err := directExec.Execute(stmt)
		if err != nil {
			return fmt.Errorf("%s stmt %d (%s): direct: %w", mix.Name, si, stmt, err)
		}
		got := canon(served.Cols, served.Rows)
		exp := canon(want.Cols, want.Rows)
		if got != exp {
			return fmt.Errorf("%s stmt %d (%s): served result differs from direct:\nserved:\n%s\ndirect:\n%s",
				mix.Name, si, stmt, got, exp)
		}
	}
	return nil
}

// TestEpochStreamIndependentOfClients is the trace-level obliviousness
// assertion for the serving layer: over the same window (the same
// number of scheduler epochs), a server facing a bursty client and a
// server facing an idle one produce identical observable query streams
// — same epoch count, same size per epoch, same slot-by-slot trace.
// The servers run in Manual mode so the window is exactly `epochs`
// epochs on both, with no timer jitter.
func TestEpochStreamIndependentOfClients(t *testing.T) {
	const epochSize, epochs, burst = 4, 8, 12

	traces := make([]*trace.Tracer, 2)
	streams := make([][]int, 2)
	var stats [2]struct{ real, dummy uint64 }
	for i, bursty := range []bool{true, false} {
		tr := trace.New()
		srv, addr := startServer(t, server.Config{
			EpochSize: epochSize,
			Manual:    true,
			Tracer:    tr,
		})

		var wg sync.WaitGroup
		if bursty {
			// The bursty client fires `burst` concurrent statements up
			// front, then goes silent.
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			for j := 0; j < burst; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := c.Exec("SELECT COUNT(*) FROM oblidb_pad"); err != nil {
						t.Errorf("burst exec: %v", err)
					}
				}()
			}
			// Wait for the whole burst to be queued so the epoch drive
			// below is deterministic.
			waitPending(t, srv, burst)
		}

		for e := 0; e < epochs; e++ {
			srv.RunEpoch()
		}
		wg.Wait() // epochs×epochSize = 32 slots ≥ 12 statements: all answered

		traces[i] = tr
		streams[i] = srv.ObservedStream()
		st := srv.Stats()
		stats[i].real, stats[i].dummy = st.Real, st.Dummy
		srv.Close()
	}

	// The two servers saw very different client behavior...
	if stats[0].real != burst || stats[1].real != 0 {
		t.Fatalf("real statement counts: bursty %d (want %d), idle %d (want 0)",
			stats[0].real, burst, stats[1].real)
	}
	// ...but published identical observable streams: same epoch count,
	// same size every epoch, slot-for-slot identical traces.
	for i, stream := range streams {
		if len(stream) != epochs {
			t.Fatalf("server %d: %d epochs observed, want %d", i, len(stream), epochs)
		}
		for e, size := range stream {
			if size != epochSize {
				t.Fatalf("server %d epoch %d: size %d, want %d", i, e, size, epochSize)
			}
		}
	}
	if d := trace.Diff(traces[0], traces[1]); d != "" {
		t.Fatalf("observable epoch traces differ between bursty and idle servers: %s", d)
	}
	if stats[0].real+stats[0].dummy != stats[1].real+stats[1].dummy {
		t.Fatalf("total executed statements differ: %d vs %d",
			stats[0].real+stats[0].dummy, stats[1].real+stats[1].dummy)
	}
}

// TestIdleServerStillPads checks the constant-rate property directly:
// with no clients at all, epochs tick and every slot is a dummy.
func TestIdleServerStillPads(t *testing.T) {
	srv, _ := startServer(t, server.Config{
		EpochSize:     3,
		EpochInterval: time.Millisecond,
	})
	st := srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Epochs == 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("no epochs ran on an idle server")
		}
		time.Sleep(time.Millisecond)
	}
	if st.Real != 0 {
		t.Fatalf("idle server executed %d real statements", st.Real)
	}
	if st.Dummy != st.Epochs*uint64(st.EpochSize) {
		t.Fatalf("dummy count %d does not fill %d epochs × %d slots",
			st.Dummy, st.Epochs, st.EpochSize)
	}
}

// TestStatsEpochCountersConsistent: Stats publishes an epoch's slot
// counts and the epoch itself together, so every snapshot of an idle
// server satisfies Real+Dummy = Epochs×EpochSize, however it interleaves
// with a fast epoch cadence.
func TestStatsEpochCountersConsistent(t *testing.T) {
	srv, _ := startServer(t, server.Config{
		EpochSize:     3,
		EpochInterval: 20 * time.Microsecond,
	})
	snapshots := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); snapshots++ {
		st := srv.Stats()
		if st.Real+st.Dummy != st.Epochs*uint64(st.EpochSize) {
			t.Fatalf("snapshot %d torn: real %d + dummy %d != %d epochs × %d slots",
				snapshots, st.Real, st.Dummy, st.Epochs, st.EpochSize)
		}
	}
}

// TestPreparedStatements exercises Prepare/Exec/Close over the wire.
func TestPreparedStatements(t *testing.T) {
	_, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE p (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO p VALUES (1)")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	count, err := c.Prepare("SELECT COUNT(*) FROM p")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := ins.Exec(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		res, err := count.Exec()
		if err != nil {
			t.Fatalf("count %d: %v", i, err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(i) {
			t.Fatalf("count after %d inserts: %d", i, got)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatalf("close stmt: %v", err)
	}
	if _, err := c.Prepare("SELECT FROM WHERE"); err == nil {
		t.Fatal("prepare of invalid SQL succeeded")
	}
}

// TestOrderLimitAndExplainServed drives the ORDER BY / LIMIT pipeline
// and EXPLAIN end-to-end over the wire: prepared parameterized shapes
// replay compiled plans across epochs, EXPLAIN renders the plan the
// cache serves, and the server's stats publish the cache and pick
// counters.
func TestOrderLimitAndExplainServed(t *testing.T) {
	_, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	for _, stmt := range []string{
		"CREATE TABLE o (k INTEGER, v INTEGER) CAPACITY = 16",
		"INSERT INTO o VALUES (1, 30), (2, 10), (3, 40), (4, 20), (5, 5)",
	} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	top, err := c.Prepare("SELECT k, v FROM o WHERE v >= $1 ORDER BY v DESC LIMIT 2")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 3; i++ {
		res, err := top.Exec(10)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if len(res.Rows) != 2 || res.Rows[0][1].AsInt() != 40 || res.Rows[1][1].AsInt() != 30 {
			t.Fatalf("served ORDER BY LIMIT = %v", res.Rows)
		}
	}

	expl, err := c.Exec("EXPLAIN SELECT k, v FROM o WHERE v >= $1 ORDER BY v DESC LIMIT 2")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var lines []string
	for _, r := range expl.Rows {
		lines = append(lines, r[0].AsString())
	}
	rendered := strings.Join(lines, "\n")
	for _, want := range []string{"Limit 2", "Sort v DESC", "Filter (v >= $1)", "Scan o"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("served EXPLAIN missing %q:\n%s", want, rendered)
		}
	}

	st, err := c.ServerStats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.PlanCompileSkips == 0 {
		t.Fatalf("served re-executions never replayed a compiled plan: %+v", st)
	}
	var sawSort bool
	for _, p := range st.Picks {
		if p.Name == "sort" && p.Count >= 3 {
			sawSort = true
		}
	}
	if !sawSort {
		t.Fatalf("stats picks missing sort tally: %+v", st.Picks)
	}
}

// TestPadTableReserved checks a client cannot sabotage the padding:
// DDL and mutations on the server-owned pad table are rejected, while
// reading it (what the dummy statement does) stays allowed.
func TestPadTableReserved(t *testing.T) {
	_, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	for _, stmt := range []string{
		"DROP TABLE oblidb_pad",
		"INSERT INTO oblidb_pad VALUES (1)",
		"UPDATE oblidb_pad SET k = 2",
		"DELETE FROM oblidb_pad",
		"CREATE TABLE OBLIDB_PAD (k INTEGER)",
	} {
		if _, err := c.Exec(stmt); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("%s: want a reserved-table error, got %v", stmt, err)
		}
		if _, err := c.Prepare(stmt); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("prepare %s: want a reserved-table error, got %v", stmt, err)
		}
	}
	res, err := c.Exec("SELECT COUNT(*) FROM oblidb_pad")
	if err != nil {
		t.Fatalf("reading the pad table should be allowed: %v", err)
	}
	if got := res.Rows[0][0].AsInt(); got != 1 {
		t.Fatalf("pad table has %d rows, want 1", got)
	}
}

// TestSlowClientDoesNotStallEpochs checks the slow-consumer policy: a
// client that submits work and never reads its socket must not stop
// the epoch cadence for everyone else.
func TestSlowClientDoesNotStallEpochs(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})

	good, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer good.Close()
	if _, err := good.Exec("CREATE TABLE s (k INTEGER, v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := good.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}

	// The slow client writes requests directly and never reads a byte.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	for i := 0; i < 600; i++ {
		payload := wire.EncodeRequest(&wire.Request{
			Type: wire.TExec, ID: uint32(i), SQL: "SELECT * FROM s",
		})
		if err := wire.WriteFrame(slow, payload); err != nil {
			break // server dropped us: exactly the policy under test
		}
	}

	// The well-behaved client must still get answers promptly.
	done := make(chan error, 1)
	go func() {
		_, err := good.Exec("SELECT COUNT(*) FROM s")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("well-behaved client failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("epoch scheduler stalled behind a slow client")
	}
	if st := srv.Stats(); st.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
}

// TestGracefulShutdown closes the server while statements are in
// flight: every Exec must return (a result or a shutdown error), never
// hang.
func TestGracefulShutdown(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE g (k INTEGER)"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	returned := make(chan struct{})
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Outcome depends on shutdown timing; what matters is that
			// the call returns.
			c.Exec(fmt.Sprintf("INSERT INTO g VALUES (%d)", i))
		}(i)
	}
	go func() { wg.Wait(); close(returned) }()
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Exec calls still blocked after server close")
	}
}

// TestPooledEpochExecution drives the worker-pool epoch executor with a
// concurrent-read engine: results must match direct serial execution
// and the observable stream must stay one full epoch per RunEpoch.
func TestPooledEpochExecution(t *testing.T) {
	tr := trace.New()
	srv, addr := startServer(t, server.Config{
		Engine:    core.Config{Workers: 4},
		EpochSize: 8,
		Manual:    true,
		Tracer:    tr,
	})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Setup sequentially (awaited, so ordering is guaranteed even with
	// a pooled executor).
	done := make(chan error, 1)
	go func() {
		if _, err := c.Exec("CREATE TABLE p (k INTEGER, v INTEGER) CAPACITY = 256"); err != nil {
			done <- err
			return
		}
		var tuples []string
		for i := 0; i < 200; i++ {
			tuples = append(tuples, fmt.Sprintf("(%d, %d)", i, i%10))
		}
		if _, err := c.Exec("INSERT INTO p VALUES " + strings.Join(tuples, ", ")); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	pump := func() {
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
				return
			default:
				srv.RunEpoch()
			}
		}
	}
	pump()

	// A batch of concurrent read-only statements lands in shared epochs
	// and executes across the pool.
	type res struct {
		sql string
		out string
		err error
	}
	stmts := []string{
		"SELECT COUNT(*) FROM p WHERE v = 3",
		"SELECT SUM(v) FROM p",
		"SELECT * FROM p WHERE v = 7",
		"SELECT MIN(k) FROM p WHERE v > 5",
		"SELECT COUNT(*) FROM p",
		"SELECT MAX(v) FROM p WHERE k < 100",
	}
	results := make(chan res, len(stmts))
	var wg sync.WaitGroup
	for _, s := range stmts {
		wg.Add(1)
		go func(s string) {
			defer wg.Done()
			r, err := c.Exec(s)
			if err != nil {
				results <- res{sql: s, err: err}
				return
			}
			results <- res{sql: s, out: canon(r.Cols, r.Rows)}
		}(s)
	}
	go func() { wg.Wait(); done <- nil }()
	pump()
	close(results)

	// Direct serial reference.
	direct := core.MustOpen(core.Config{})
	dx := sql.New(direct)
	if _, err := dx.Execute("CREATE TABLE p (k INTEGER, v INTEGER) CAPACITY = 256"); err != nil {
		t.Fatal(err)
	}
	var tuples []string
	for i := 0; i < 200; i++ {
		tuples = append(tuples, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	if _, err := dx.Execute("INSERT INTO p VALUES " + strings.Join(tuples, ", ")); err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if r.err != nil {
			t.Fatalf("%s: %v", r.sql, r.err)
		}
		want, err := dx.Execute(r.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := r.out, canon(want.Cols, want.Rows); got != w {
			t.Fatalf("%s:\npooled: %s\ndirect: %s", r.sql, got, w)
		}
	}

	// The observable stream is full epochs only, same as the serial
	// executor produces.
	for i, n := range srv.ObservedStream() {
		if n != 8 {
			t.Fatalf("epoch %d had %d slots, want 8", i, n)
		}
	}
}
