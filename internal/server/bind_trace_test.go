package server_test

import (
	"testing"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/server"
	"oblidb/internal/trace"
)

// TestPreparedArgsServedTraceIdentical is the end-to-end leakage
// assertion for parameter binding through the serving layer: two
// servers executing the same prepared statement shape with different
// argument values publish identical observables — the same epoch
// stream AND byte-identical engine traces — provided the public sizes
// (tables, matching counts) coincide. The argument value exists only
// inside the encrypted frames and the enclave's evaluator.
func TestPreparedArgsServedTraceIdentical(t *testing.T) {
	const epochSize = 2

	fixedKey := make([]byte, 32)
	engTraces := make([]*trace.Tracer, 2)
	streams := make([][]int, 2)
	for i, arg := range []int{10, 40} {
		engTr := trace.New()
		srv, addr := startServer(t, server.Config{
			Engine:    core.Config{Tracer: engTr, Key: fixedKey},
			EpochSize: epochSize,
			Manual:    true,
			Tracer:    trace.New(), // enables epoch-stream recording
		})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}

		// Identical setup on both servers: same data, and both argument
		// values (10 and 40) match exactly two of the eight rows, so the
		// public output size is equal.
		runOne(t, srv, func() error {
			_, err := c.Exec("CREATE TABLE t (id INTEGER, v INTEGER, name VARCHAR(8))")
			return err
		})
		runOne(t, srv, func() error {
			_, err := c.Exec("INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c'), (4, 20, 'd'), (5, 30, 'e'), (6, 30, 'f'), (7, 40, 'g'), (8, 40, 'h')")
			return err
		})

		st, err := c.Prepare("SELECT name FROM t WHERE v = $1")
		if err != nil {
			t.Fatal(err)
		}
		// Reset the engine trace here: the assertion is about the
		// prepared executions, not the (already identical) setup.
		engTr.Reset()
		for rep := 0; rep < 3; rep++ {
			runOne(t, srv, func() error {
				res, err := st.Exec(arg)
				if err != nil {
					return err
				}
				if len(res.Rows) != 2 {
					t.Errorf("arg %d rep %d: %d rows, want 2", arg, rep, len(res.Rows))
				}
				return nil
			})
		}

		engTraces[i] = engTr
		streams[i] = srv.ObservedStream()
		c.Close()
		srv.Close()
	}

	// Identical epoch streams: same epoch count, every epoch full-size.
	if len(streams[0]) != len(streams[1]) {
		t.Fatalf("epoch streams differ in length: %d vs %d", len(streams[0]), len(streams[1]))
	}
	for e := range streams[0] {
		if streams[0][e] != streams[1][e] || streams[0][e] != epochSize {
			t.Fatalf("epoch %d: sizes %d vs %d (want %d)", e, streams[0][e], streams[1][e], epochSize)
		}
	}
	// Byte-identical engine traces across the prepared executions.
	if d := trace.Diff(engTraces[0], engTraces[1]); d != "" {
		t.Fatalf("served prepared-statement trace depends on the bound argument: %s", d)
	}
	if engTraces[0].Len() == 0 {
		t.Fatal("no engine events traced; the test is vacuous")
	}
}
