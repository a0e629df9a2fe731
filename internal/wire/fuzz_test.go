package wire

import (
	"bytes"
	"testing"

	"oblidb/internal/table"
)

// FuzzWireFrame feeds arbitrary payloads to both frame decoders: they
// must reject garbage with an error, never panic or over-allocate, and
// any payload they accept must re-encode to a canonical form that
// round-trips (encode → decode → encode is a fixed point).
func FuzzWireFrame(f *testing.F) {
	f.Add(EncodeRequest(&Request{Type: TExec, ID: 7, SQL: "SELECT * FROM t"}))
	f.Add(EncodeRequest(&Request{Type: TPrepare, ID: 1, SQL: "INSERT INTO t VALUES (1)"}))
	f.Add(EncodeRequest(&Request{Type: TExecPrepared, ID: 2, Handle: 3}))
	f.Add(EncodeRequest(&Request{Type: TExecPrepared, ID: 3, Handle: 4, Args: []table.Value{
		table.Int(7), table.Float(-0.5), table.Str("x"), table.Bool(false), table.Null(),
	}}))
	f.Add(EncodeResponse(&Response{Type: TPrepared, ID: 12, Handle: 9, NumParams: 2}))
	f.Add([]byte{TExecPrepared, 0, 0, 0, 9, 0, 0, 0, 3}) // no argument count: must be rejected
	f.Add(EncodeRequest(&Request{Type: TStats, ID: 9}))
	f.Add(EncodeResponse(&Response{Type: TError, ID: 4, Err: "no such table"}))
	f.Add(EncodeResponse(&Response{Type: TPrepared, ID: 5, Handle: 8}))
	f.Add(EncodeResponse(&Response{Type: TStatsResult, ID: 6, Stats: Stats{Epochs: 10, EpochSize: 8, Real: 3, Dummy: 77, Sessions: 2, UptimeMillis: 1234}}))
	f.Add(EncodeResponse(&Response{Type: TResult, ID: 7, Result: &Result{
		Cols: []string{"k", "f", "s", "b"},
		Rows: []table.Row{
			{table.Int(-1), table.Float(2.5), table.Str("x'y"), table.Bool(true)},
			{table.Int(9), table.Float(0), table.Str(""), table.Bool(false)},
		},
	}}))
	f.Add([]byte{})
	f.Add([]byte{TResult, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // lying row count
	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := DecodeRequest(payload); err == nil {
			b1 := EncodeRequest(req)
			req2, err := DecodeRequest(b1)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if b2 := EncodeRequest(req2); !bytes.Equal(b1, b2) {
				t.Fatalf("request encoding not canonical:\n%x\n%x", b1, b2)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			b1 := EncodeResponse(resp)
			resp2, err := DecodeResponse(b1)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if b2 := EncodeResponse(resp2); !bytes.Equal(b1, b2) {
				t.Fatalf("response encoding not canonical:\n%x\n%x", b1, b2)
			}
		}
	})
}
