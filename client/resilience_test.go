package client_test

import (
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"oblidb"
	"oblidb/client"
	"oblidb/internal/server"
)

// proxy is a severable TCP relay between the client under test and a
// real server: Sever() kills every live hop at once, simulating a
// server crash or network partition, while the listener stays up so a
// reconnecting client can get through again.
type proxy struct {
	t      *testing.T
	lis    net.Listener
	target string

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &proxy{t: t, lis: lis, target: target}
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *proxy) addr() string { return p.lis.Addr().String() }

func (p *proxy) accept() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		go pipe(c, s)
		go pipe(s, c)
	}
}

func pipe(dst, src net.Conn) {
	io.Copy(dst, src)
	dst.Close()
	src.Close()
}

// sever drops every live connection; the listener keeps accepting.
func (p *proxy) sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *proxy) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.lis.Close()
	p.sever()
}

// TestReconnectRePrepareRetry pins the client's whole resilience path:
// after the connection is severed mid-session, a read on a prepared
// statement reconnects (with backoff), transparently re-prepares the
// handle on the fresh session, retries, and returns the same answer —
// and the reconnect/retry work is visible in ConnStats. Whether a retry
// happens depends on the schedule: when the redial lands before the
// exec, the re-prepare alone carries it onto the new session. Either
// way the recovery shows up as a retry or a re-prepare.
func TestReconnectRePrepareRetry(t *testing.T) {
	addr := startServer(t)
	p := newProxy(t, addr)
	c, err := client.DialOptions(p.addr(), client.Options{
		Reconnect:   true,
		RetryReads:  true,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxRetries:  25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE r (k INTEGER, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("SELECT COUNT(*) FROM r WHERE v >= $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("before sever: count = %v", res.Rows[0][0])
	}

	p.sever()

	// The next execution rides the full recovery path; it must return
	// the right answer, not an error and never a wrong one.
	res, err = st.Exec(20)
	if err != nil {
		t.Fatalf("exec across reconnect: %v", err)
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("after reconnect: count = %v", res.Rows[0][0])
	}
	stats := c.Stats()
	if stats.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", stats.Reconnects)
	}
	if stats.Retries+stats.RePrepares < 1 {
		t.Fatalf("retries = %d, re-prepares = %d, want a sum >= 1", stats.Retries, stats.RePrepares)
	}
	if !stats.Connected {
		t.Fatal("stats report disconnected after successful reconnect")
	}
	// Writes work on the recovered session too (the table survived —
	// only the connection died, not the server).
	if _, err := c.Exec("INSERT INTO r VALUES (4, 40)"); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
}

// TestOverloadCodeSurfacedToClient pins end-to-end error typing: a
// server-side admission rejection crosses the wire and surfaces through
// the client as an error the public oblidb.ErrorCodeOf / Retriable
// helpers classify — no message-string parsing needed.
func TestOverloadCodeSurfacedToClient(t *testing.T) {
	srv, err := server.New(server.Config{
		Manual:           true,
		MaxPending:       1,
		AdmissionTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go srv.ListenAndServe("127.0.0.1:0")
	for i := 0; srv.Addr() == nil; i++ {
		if i > 2000 {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}

	c, err := client.Dial(srv.Addr().String()) // plain Dial: no auto-retry
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two statements against a one-slot queue that nothing drains: one
	// waits for an epoch, the other is rejected with the typed overload.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Exec("SELECT COUNT(*) FROM oblidb_pad")
			errs <- err
		}()
	}
	var overload error
	select {
	case overload = <-errs:
	case <-time.After(10 * time.Second):
		t.Fatal("no admission rejection arrived")
	}
	if overload == nil {
		t.Fatal("both statements accepted by a one-slot queue that never drains")
	}
	if code := oblidb.ErrorCodeOf(overload); code != oblidb.CodeOverload {
		t.Fatalf("rejection code = %v, want overload (err: %v)", code, overload)
	}
	if !oblidb.Retriable(overload) {
		t.Fatal("overload rejection must classify as retriable")
	}
	// Drain the queued statement; it completes normally.
	srv.RunEpoch()
	if err := <-errs; err != nil {
		t.Fatalf("queued statement after overload: %v", err)
	}
}

// TestCloseIdempotent pins Close's contract: double Close is safe and
// calls after Close fail immediately with a terminal, non-retriable
// error.
func TestCloseIdempotent(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT COUNT(*) FROM oblidb_pad"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	_, err = c.Exec("SELECT COUNT(*) FROM oblidb_pad")
	if err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Fatalf("exec after close: %v", err)
	}
	if oblidb.Retriable(err) {
		t.Fatal("deliberate close must not classify as retriable")
	}
}

// TestNoGoroutineLeaks pins teardown hygiene: plain and reconnecting
// connections — including one that lived through a sever/redial cycle —
// leave no reader, redial, or writer goroutines behind after Close.
func TestNoGoroutineLeaks(t *testing.T) {
	addr := startServer(t)
	p := newProxy(t, addr)
	before := runtime.NumGoroutine()

	// A plain connection's full lifecycle.
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c1.Prepare("SELECT COUNT(*) FROM oblidb_pad")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A reconnecting connection severed mid-life: the redial loop and
	// the replacement reader must both die with Close.
	c2, err := client.DialOptions(p.addr(), client.Options{
		Reconnect:   true,
		RetryReads:  true,
		BackoffBase: 2 * time.Millisecond,
		MaxRetries:  25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("SELECT COUNT(*) FROM oblidb_pad"); err != nil {
		t.Fatal(err)
	}
	p.sever()
	if _, err := c2.Exec("SELECT COUNT(*) FROM oblidb_pad"); err != nil {
		t.Fatalf("exec across reconnect: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	p.close()

	// Server-side session goroutines unwind asynchronously after the
	// client hangs up; poll until the count settles back.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestContextCancelDuringReconnect pins that a context deadline cuts a
// retry loop short instead of sleeping out the full backoff schedule
// against a server that never comes back.
func TestContextCancelDuringReconnect(t *testing.T) {
	addr := startServer(t)
	p := newProxy(t, addr)
	c, err := client.DialOptions(p.addr(), client.Options{
		Reconnect:   true,
		RetryReads:  true,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
		MaxRetries:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELECT COUNT(*) FROM oblidb_pad"); err != nil {
		t.Fatal(err)
	}
	p.close() // listener gone too: reconnect can never succeed
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.ExecContext(ctx, "SELECT COUNT(*) FROM oblidb_pad")
	if err == nil {
		t.Fatal("exec succeeded with no server behind the proxy")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled exec took %s", elapsed)
	}
}
