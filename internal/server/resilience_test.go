package server_test

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/oberr"
	"oblidb/internal/server"
	"oblidb/internal/table"
	"oblidb/internal/wire"
)

// rawConn is a frame-level test client: it speaks the wire protocol
// directly so tests can observe error codes and response ordering
// without the client package's retry machinery in the way.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c}
}

func (r *rawConn) send(req *wire.Request) {
	r.t.Helper()
	if err := wire.WriteFrame(r.c, wire.EncodeRequest(req)); err != nil {
		r.t.Fatalf("send: %v", err)
	}
}

func (r *rawConn) recv() *wire.Response {
	r.t.Helper()
	payload, err := wire.ReadFrame(r.c)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatalf("decode: %v", err)
	}
	return resp
}

// waitPending blocks until at least n statements are queued for future
// epochs — manual-mode tests need the session reader to have submitted
// before they drive an epoch.
func waitPending(t *testing.T, srv *server.Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.Pending() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d statements queued", srv.Pending(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionOverloadTyped pins bounded admission: with a full queue
// that no epoch drains (Manual mode), a submission waits only
// AdmissionTimeout and is then rejected with the typed, retriable
// overload code — never an unbounded stall, never a silent drop.
func TestAdmissionOverloadTyped(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Manual:           true,
		MaxPending:       1,
		AdmissionTimeout: 20 * time.Millisecond,
	})
	rc := dialRaw(t, addr)
	// The first statement fills the queue's only slot; the second must
	// come back as a typed overload rejection.
	rc.send(&wire.Request{Type: wire.TExec, ID: 1, SQL: "SELECT COUNT(*) FROM oblidb_pad"})
	rc.send(&wire.Request{Type: wire.TExec, ID: 2, SQL: "SELECT COUNT(*) FROM oblidb_pad"})
	resp := rc.recv()
	if resp.Type != wire.TError || resp.ID != 2 {
		t.Fatalf("expected TError for request 2, got type=%d id=%d", resp.Type, resp.ID)
	}
	if oberr.Code(resp.ErrCode) != oberr.CodeOverload {
		t.Fatalf("overload rejection carried code %d (%s), want %d",
			resp.ErrCode, oberr.Code(resp.ErrCode), oberr.CodeOverload)
	}
	if !oberr.Code(resp.ErrCode).Retriable() {
		t.Fatal("overload code must be retriable")
	}
	if !strings.Contains(resp.Err, "admission queue full") {
		t.Fatalf("overload message = %q", resp.Err)
	}
	// Draining one epoch clears the queue; the queued statement answers
	// and a retry of the rejected one now succeeds.
	srv.RunEpoch()
	if resp := rc.recv(); resp.Type != wire.TResult || resp.ID != 1 {
		t.Fatalf("queued statement: got type=%d id=%d", resp.Type, resp.ID)
	}
	rc.send(&wire.Request{Type: wire.TExec, ID: 3, SQL: "SELECT COUNT(*) FROM oblidb_pad"})
	waitPending(t, srv, 1) // the reader must queue it before the manual epoch runs
	srv.RunEpoch()
	if resp := rc.recv(); resp.Type != wire.TResult || resp.ID != 3 {
		t.Fatalf("retry after overload: got type=%d id=%d", resp.Type, resp.ID)
	}
	// The rejection is visible in the audited counter (MetricsJSON).
	if mj := srv.Stats().MetricsJSON; !strings.Contains(mj, "oblidb_admission_rejected_total") {
		t.Fatal("admission rejection counter missing from metrics snapshot")
	}
}

// TestCloseDuringPendingEpoch pins the graceful drain: statements
// queued for future epochs when Close begins are still executed (in
// padded epochs) and answered — no request is ever silently dropped by
// shutdown.
func TestCloseDuringPendingEpoch(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Manual:     true,
		EpochSize:  2,
		MaxPending: 64,
	})
	rc := dialRaw(t, addr)
	const n = 5
	for i := 1; i <= n; i++ {
		rc.send(&wire.Request{Type: wire.TExec, ID: uint32(i), SQL: "SELECT COUNT(*) FROM oblidb_pad"})
	}
	// Wait for all n to be queued before closing, so the drain has real
	// work: the reader goroutine may still be decoding frames.
	waitPending(t, srv, n)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	seen := make(map[uint32]bool)
	for len(seen) < n {
		resp := rc.recv()
		if seen[resp.ID] {
			t.Fatalf("duplicate response for id %d", resp.ID)
		}
		seen[resp.ID] = true
		switch resp.Type {
		case wire.TResult:
		case wire.TError:
			// A statement the drain rejected must carry the typed,
			// retriable shutdown code — the client may safely resubmit.
			if oberr.Code(resp.ErrCode) != oberr.CodeShutdown {
				t.Fatalf("drain rejection carried code %d, want %d (shutdown)",
					resp.ErrCode, oberr.CodeShutdown)
			}
		default:
			t.Fatalf("unexpected response type %d", resp.Type)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCloseDuringOpenTransaction pins shutdown's transaction handling:
// a session holding an open transaction when the server closes has it
// rolled back (and accounted), not left half-buffered.
func TestCloseDuringOpenTransaction(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		EpochSize:     2,
		EpochInterval: time.Millisecond,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE txdrain (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO txdrain VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().TxRolledBack
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The implicit rollback is accounted on the session goroutine as it
	// unwinds; give it a moment.
	deadline := time.After(5 * time.Second)
	for srv.Stats().TxRolledBack != before+1 {
		select {
		case <-deadline:
			t.Fatalf("open transaction not rolled back on close: counter %d, want %d",
				srv.Stats().TxRolledBack, before+1)
		case <-time.After(time.Millisecond):
		}
	}
	// The buffered write never committed: nothing reached the journal-
	// visible engine state.
	res, err := srv.DB().Select("txdrain", table.All, core.SelectOptions{})
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("abandoned transaction leaked %d row(s)", len(res.Rows))
	}
}

// TestSlowConsumerEvicted pins eviction accounting: a client that
// floods requests without ever reading responses overruns its response
// buffer and is dropped, counted in oblidb_sessions_evicted_total.
func TestSlowConsumerEvicted(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		EpochSize:     8,
		EpochInterval: time.Millisecond,
		MaxPending:    4096,
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Shrink our receive window so TCP flow control stalls the server's
	// writer after a few KB instead of after megabytes of autotuned
	// kernel buffering — the 256-response overrun then happens fast.
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	evicted := func() bool {
		var snap map[string]any
		if err := json.Unmarshal([]byte(srv.Stats().MetricsJSON), &snap); err != nil {
			t.Fatalf("metrics snapshot not JSON: %v", err)
		}
		v, ok := snap["oblidb_sessions_evicted_total"].(float64)
		return ok && v >= 1
	}
	// An unknown-handle exec is answered immediately from the reader
	// goroutine (a map miss — no epoch slot, no engine), so flooding
	// them while reading nothing overruns the 256-response session
	// buffer as fast as the reader can decode. Kernel socket buffers
	// autotune, so no fixed request count is guaranteed to fill them:
	// keep writing until the eviction shows up in the counter or the
	// server hangs up on us (the eviction closes the connection, which
	// fails the write — that is the point).
	for i := 0; i < 500000; i++ {
		req := &wire.Request{Type: wire.TExecPrepared, ID: uint32(i), Handle: 999999}
		if err := wire.WriteFrame(c, wire.EncodeRequest(req)); err != nil {
			break
		}
		if i%512 == 0 && evicted() {
			return
		}
	}
	deadline := time.After(10 * time.Second)
	for !evicted() {
		select {
		case <-deadline:
			t.Fatal("slow consumer never evicted")
		case <-time.After(5 * time.Millisecond):
		}
	}
}
