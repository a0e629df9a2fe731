package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oblidb/internal/table"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, []byte("hello"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	r := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(r); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

// requestCases and responseCases are one frame of each layout; the
// round-trip and strictness tests all run over them.
var requestCases = []*Request{
	{Type: TExec, ID: 7, SQL: "SELECT * FROM t WHERE k = 1"},
	{Type: TPrepare, ID: 8, SQL: "INSERT INTO t VALUES (1, 'x')"},
	{Type: TExecPrepared, ID: 9, Handle: 3},
	{Type: TExecPrepared, ID: 12, Handle: 4, Args: []table.Value{
		table.Int(-7), table.Float(2.5), table.Str("al'ice"), table.Bool(true), table.Null(),
	}},
	{Type: TClosePrepared, ID: 10, Handle: 3},
	{Type: TStats, ID: 11},
}

var responseCases = []*Response{
	{Type: TError, ID: 1, Err: "core: no table \"t\""},
	{Type: TError, ID: 7, Err: "server: admission queue full", ErrCode: 3},
	{Type: TPrepared, ID: 2, Handle: 42},
	{Type: TPrepared, ID: 6, Handle: 43, NumParams: 3},
	{Type: TStatsResult, ID: 3, Stats: Stats{
		Epochs: 10, EpochSize: 8, Real: 3, Dummy: 77, Sessions: 2, UptimeMillis: 1234,
	}},
	{Type: TStatsResult, ID: 9, Stats: Stats{
		Epochs: 2, EpochSize: 4, Real: 1, Dummy: 7, Sessions: 1, UptimeMillis: 55,
		PlanEntries: 3, PlanHits: 9, PlanMisses: 4, PlanCompiles: 3, PlanCompileSkips: 6,
		Picks:       []AlgPick{{Name: "join.Hash", Count: 2}, {Name: "select.Small", Count: 11}, {Name: "sort", Count: 5}},
		MetricsJSON: `{"oblidb_epochs_total":2}`,
		TxBegun:     6, TxCommitted: 4, TxRolledBack: 1, TxAborted: 1,
		WalEntries: 250, WalCommits: 40, WalCheckpoints: 2, WalBytes: 4096,
	}},
	{Type: TResult, ID: 4, Result: &Result{
		Cols: []string{"k", "name", "score", "ok"},
		Rows: []table.Row{
			{table.Int(-5), table.Str("alice"), table.Float(1.5), table.Bool(true)},
			{table.Int(9), table.Str(""), table.Float(-0.25), table.Bool(false)},
		},
	}},
	{Type: TResult, ID: 5, Result: &Result{Cols: []string{"affected"}}},
	{Type: TResult, ID: 8, Result: &Result{
		Cols:     []string{"affected"},
		Rows:     []table.Row{{table.Int(3)}},
		Affected: true,
	}},
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range requestCases {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("decode %d: %v", req.Type, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip %d: got %+v, want %+v", req.Type, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range responseCases {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("decode %d: %v", resp.Type, err)
		}
		if got.Type != resp.Type || got.ID != resp.ID || got.Err != resp.Err ||
			got.ErrCode != resp.ErrCode ||
			got.Handle != resp.Handle || got.NumParams != resp.NumParams ||
			!reflect.DeepEqual(got.Stats, resp.Stats) {
			t.Fatalf("round trip %d: got %+v, want %+v", resp.Type, got, resp)
		}
		if resp.Result == nil {
			continue
		}
		if !reflect.DeepEqual(got.Result.Cols, resp.Result.Cols) {
			t.Fatalf("cols: got %v, want %v", got.Result.Cols, resp.Result.Cols)
		}
		if got.Result.Affected != resp.Result.Affected {
			t.Fatalf("affected flag: got %v, want %v", got.Result.Affected, resp.Result.Affected)
		}
		if len(got.Result.Rows) != len(resp.Result.Rows) {
			t.Fatalf("rows: got %d, want %d", len(got.Result.Rows), len(resp.Result.Rows))
		}
		for i, row := range resp.Result.Rows {
			for j, v := range row {
				if !got.Result.Rows[i][j].Equal(v) {
					t.Fatalf("row %d col %d: got %s, want %s", i, j, got.Result.Rows[i][j], v)
				}
			}
		}
	}
}

// TestDecodeRejectsTruncatedFrames pins the one layout: every field is
// read unconditionally, so every strict prefix of an encoding fails.
func TestDecodeRejectsTruncatedFrames(t *testing.T) {
	for _, req := range requestCases {
		b := EncodeRequest(req)
		for n := 0; n < len(b); n++ {
			if _, err := DecodeRequest(b[:n]); err == nil {
				t.Errorf("request %d: %d-byte prefix of %d decoded", req.Type, n, len(b))
			}
		}
	}
	for _, resp := range responseCases {
		b := EncodeResponse(resp)
		for n := 0; n < len(b); n++ {
			if _, err := DecodeResponse(b[:n]); err == nil {
				t.Errorf("response %d: %d-byte prefix of %d decoded", resp.Type, n, len(b))
			}
		}
	}
}

// TestDecodeRejectsTrailingBytes: a frame longer than its layout fails
// too, so no reader can mistake an unknown extension for a known frame.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, req := range requestCases {
		if _, err := DecodeRequest(append(EncodeRequest(req), 0)); err == nil {
			t.Errorf("request %d with a trailing byte decoded", req.Type)
		}
	}
	for _, resp := range responseCases {
		if _, err := DecodeResponse(append(EncodeResponse(resp), 0)); err == nil {
			t.Errorf("response %d with a trailing byte decoded", resp.Type)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown request type accepted")
	}
	if _, err := DecodeResponse([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown response type accepted")
	}
	if _, err := DecodeRequest([]byte{TExec, 0}); err == nil {
		t.Fatal("truncated request accepted")
	}
	// A string length pointing past the payload must error, not panic.
	if _, err := DecodeRequest(append([]byte{TExec, 0, 0, 0, 1}, 0xff, 0x7f)); err == nil {
		t.Fatal("lying string length accepted")
	}
	// A lying argument count on TExecPrepared must error, not panic or
	// over-allocate.
	if _, err := DecodeRequest(append([]byte{TExecPrepared, 0, 0, 0, 1, 0, 0, 0, 2}, 0xff, 0x7f)); err == nil {
		t.Fatal("lying argument count accepted")
	}
	// An unknown value tag in the argument list must error.
	if _, err := DecodeRequest(append([]byte{TExecPrepared, 0, 0, 0, 1, 0, 0, 0, 2}, 1, 99)); err == nil {
		t.Fatal("unknown argument value kind accepted")
	}
}

// TestStatsFrameVersionMatrix pins the TStatsResult layout against the
// shorter frames earlier servers sent: the full frame round-trips
// MetricsJSON and the picks, while a frame ending after the picks or
// after UptimeMillis is an error, not a frame with zeroed extensions.
func TestStatsFrameVersionMatrix(t *testing.T) {
	full := &Response{Type: TStatsResult, ID: 9, Stats: Stats{
		Epochs: 10, EpochSize: 8, Real: 3, Dummy: 77, Sessions: 2, UptimeMillis: 1234,
		PlanEntries: 4, PlanHits: 20, PlanMisses: 5, PlanCompiles: 6, PlanCompileSkips: 14,
		Picks:       []AlgPick{{Name: "select.Hash", Count: 7}, {Name: "sort", Count: 3}},
		MetricsJSON: `{"oblidb_epochs_total":10}`,
	}}
	payload := EncodeResponse(full)

	// Header end: type+id (5) + u64 + u32 + u64 + u64 + u32 + u64.
	headerEnd := 5 + 8 + 4 + 8 + 8 + 4 + 8
	// Picks end: header + plan counters (u32 + 4×u64) + picks (uvarint
	// count, then per pick a uvarint-length name and a u64 count).
	picksEnd := headerEnd + 4 + 4*8 + 1
	for _, p := range full.Stats.Picks {
		picksEnd += 1 + len(p.Name) + 8
	}

	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("full frame: %v", err)
	}
	if !reflect.DeepEqual(resp.Stats, full.Stats) {
		t.Fatalf("full round trip: got %+v, want %+v", resp.Stats, full.Stats)
	}
	for _, end := range []int{picksEnd, headerEnd} {
		if _, err := DecodeResponse(payload[:end]); err == nil {
			t.Fatalf("stats frame cut at byte %d of %d decoded", end, len(payload))
		}
	}
}

// TestStatsFrameV4Tail pins the eight u64 transaction/journal counters
// after MetricsJSON: a full frame round-trips them, and the same frame
// without them is an error, not a frame with the tail zeroed.
func TestStatsFrameV4Tail(t *testing.T) {
	full := &Response{Type: TStatsResult, ID: 4, Stats: Stats{
		Epochs: 10, EpochSize: 8, Real: 3, Dummy: 77, Sessions: 2, UptimeMillis: 1234,
		MetricsJSON:    `{"oblidb_epochs_total":10}`,
		TxBegun:        6,
		TxCommitted:    4,
		TxRolledBack:   1,
		TxAborted:      1,
		WalEntries:     250,
		WalCommits:     40,
		WalCheckpoints: 2,
		WalBytes:       4096,
	}}
	payload := EncodeResponse(full)

	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("full frame: %v", err)
	}
	if !reflect.DeepEqual(resp.Stats, full.Stats) {
		t.Fatalf("full round trip: got %+v, want %+v", resp.Stats, full.Stats)
	}
	// The tail is exactly the last 8 u64s.
	if _, err := DecodeResponse(payload[:len(payload)-8*8]); err == nil {
		t.Fatal("stats frame without its Tx/Wal tail decoded")
	}
}

// TestTxControlFramesRoundTrip pins the transaction-control request
// frames: empty bodies, just type and ID.
func TestTxControlFramesRoundTrip(t *testing.T) {
	for _, typ := range []byte{TBegin, TCommit, TRollback} {
		req := &Request{Type: typ, ID: 21}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("decode %d: %v", typ, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip %d: got %+v, want %+v", typ, got, req)
		}
	}
}
