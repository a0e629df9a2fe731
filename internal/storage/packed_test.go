package storage

import (
	"errors"
	"fmt"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// Tests for block-packed geometry (DESIGN.md §12): correctness across
// R, the §2.3 attack classes against packed blocks, trace-obliviousness
// pinned at R > 1, and the zero-allocation scan read path.

// geometries is the packing sweep every packed test runs.
var geometries = []int{1, 3, 4, 16}

func newPacked(t *testing.T, capacity, r int, tr *trace.Tracer) *Flat {
	t.Helper()
	e := enclave.MustNew(enclave.Config{Tracer: tr, Key: make([]byte, 32)})
	f, err := NewFlatGeom(e, "t", kvSchema(t), capacity, r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPackedGeometry(t *testing.T) {
	f := newPacked(t, 10, 4, nil)
	if f.NumBlocks() != 3 { // ceil(10/4)
		t.Fatalf("NumBlocks = %d, want 3", f.NumBlocks())
	}
	if f.Capacity() != 12 { // rounded up to whole blocks
		t.Fatalf("Capacity = %d, want 12", f.Capacity())
	}
	if f.RowsPerBlock() != 4 {
		t.Fatalf("RowsPerBlock = %d, want 4", f.RowsPerBlock())
	}
	if got := f.Store().BlockSize(); got != kvSchema(t).BlockSize(4) {
		t.Fatalf("store block size = %d, want %d", got, kvSchema(t).BlockSize(4))
	}
}

func TestPackedRoundTripAllGeometries(t *testing.T) {
	for _, r := range geometries {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			f := newPacked(t, 10, r, nil)
			for i := int64(0); i < 10; i++ {
				if err := f.InsertFast(row(i, fmt.Sprintf("v%d", i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			rows, err := f.Rows()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 10 {
				t.Fatalf("Rows() = %d rows, want 10", len(rows))
			}
			for i, rw := range rows {
				if rw[0].AsInt() != int64(i) || rw[1].AsString() != fmt.Sprintf("v%d", i) {
					t.Fatalf("row %d = %v", i, rw)
				}
			}
			// Point reads straddle block boundaries.
			for _, i := range []int{0, r - 1, r, 9} {
				if i >= 10 {
					continue
				}
				rw, used, err := f.ReadRow(i)
				if err != nil || !used || rw[0].AsInt() != int64(i) {
					t.Fatalf("ReadRow(%d) = %v used=%v err=%v", i, rw, used, err)
				}
			}
			// Mutations across the whole sweep.
			if n, err := f.Update(func(rw table.Row) bool { return rw[0].AsInt()%2 == 0 },
				func(rw table.Row) table.Row { rw[1] = table.Str("even"); return rw }); err != nil || n != 5 {
				t.Fatalf("Update = %d, %v", n, err)
			}
			if n, err := f.Delete(func(rw table.Row) bool { return rw[0].AsInt() >= 8 }); err != nil || n != 2 {
				t.Fatalf("Delete = %d, %v", n, err)
			}
			if f.NumRows() != 8 {
				t.Fatalf("NumRows = %d, want 8", f.NumRows())
			}
			rw, _, err := f.ReadRow(4)
			if err != nil || rw[1].AsString() != "even" {
				t.Fatalf("ReadRow(4) after update = %v, %v", rw, err)
			}
		})
	}
}

// TestPackedUpdateValidatesBeforeWriting is the regression test for the
// Update validation fix: a misbehaving updater (wrong arity, wrong kind,
// oversized string) must fail cleanly with the table unmodified, not
// error mid-pass with the table half-rewritten.
func TestPackedUpdateValidatesBeforeWriting(t *testing.T) {
	for _, r := range []int{1, 4} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			f := newPacked(t, 8, r, nil)
			for i := int64(0); i < 8; i++ {
				if err := f.InsertFast(row(i, "orig"), nil); err != nil {
					t.Fatal(err)
				}
			}
			bad := []struct {
				name string
				upd  table.Updater
			}{
				{"wrong arity", func(rw table.Row) table.Row { return rw[:1] }},
				{"wrong kind", func(rw table.Row) table.Row { rw[1] = table.Int(1); return rw }},
				{"oversized string", func(rw table.Row) table.Row { rw[1] = table.Str("way-too-long-for-width-12"); return rw }},
			}
			for _, tc := range bad {
				n, err := f.Update(table.All, tc.upd)
				if err == nil {
					t.Fatalf("%s: invalid update accepted", tc.name)
				}
				if n != 0 {
					t.Fatalf("%s: %d rows reported updated on failure", tc.name, n)
				}
				rows, err := f.Rows()
				if err != nil {
					t.Fatal(err)
				}
				for i, rw := range rows {
					if rw[1].AsString() != "orig" {
						t.Fatalf("%s: row %d modified by failed update: %v", tc.name, i, rw)
					}
				}
			}
		})
	}
}

// --- Adversary attacks against packed blocks ----------------------------

func packedAttackTable(t *testing.T, r int) *Flat {
	t.Helper()
	f := newPacked(t, 12, r, nil)
	for i := int64(0); i < 12; i++ {
		if err := f.InsertFast(row(i, "secret"), nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestPackedAttackTamper(t *testing.T) {
	f := packedAttackTable(t, 4)
	raw := f.Store().AdversaryRawBlock(1)
	raw[len(raw)/2] ^= 0x01
	f.Store().AdversarySetRawBlock(1, raw)
	// Any row of the tampered block fails, whatever slot it occupies.
	for i := 4; i < 8; i++ {
		if _, _, err := f.ReadRow(i); !errors.Is(err, crypt.ErrAuth) {
			t.Fatalf("tampered packed block read of row %d: err=%v, want ErrAuth", i, err)
		}
	}
	// Other blocks stay readable.
	if _, _, err := f.ReadRow(0); err != nil {
		t.Fatalf("untampered block unreadable: %v", err)
	}
}

func TestPackedAttackSwap(t *testing.T) {
	f := packedAttackTable(t, 4)
	f.Store().AdversarySwapBlocks(0, 2)
	if _, _, err := f.ReadRow(0); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("swapped packed block accepted: %v", err)
	}
	if _, _, err := f.ReadRow(11); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("swapped packed block accepted at the other slot: %v", err)
	}
}

func TestPackedAttackRollback(t *testing.T) {
	// Snapshot a packed block, delete one of its rows, replay the
	// snapshot: the revision binding must reject the resurrected block.
	f := packedAttackTable(t, 4)
	old := f.Store().AdversaryRawBlock(1)
	if _, err := f.Delete(func(rw table.Row) bool { return rw[0].AsInt() == 5 }); err != nil {
		t.Fatal(err)
	}
	f.Store().AdversarySetRawBlock(1, old)
	if _, _, err := f.ReadRow(5); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("rolled-back packed block accepted: %v", err)
	}
}

// --- Trace obliviousness at R > 1 ---------------------------------------

// packedTrace runs one mutation workload over data derived from seed and
// returns the trace. Everything public (capacity, R, operation sequence)
// is fixed; everything data (values, which rows match) varies with seed.
func packedTrace(t *testing.T, r int, seed int64) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	f := newPacked(t, 16, r, tr)
	for i := int64(0); i < 12; i++ {
		if err := f.InsertFast(row(i*seed%17, "v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.Reset()
	if err := f.Insert(row(seed, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Update(func(rw table.Row) bool { return rw[0].AsInt()%3 == seed%3 },
		func(rw table.Row) table.Row { rw[1] = table.Str("u"); return rw }); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Delete(func(rw table.Row) bool { return rw[0].AsInt()%5 == seed%5 }); err != nil {
		t.Fatal(err)
	}
	if err := f.Scan(func(int, table.Row, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPackedMutationTraceOblivious(t *testing.T) {
	// For each fixed (capacity, R), the insert/update/delete/scan trace
	// is byte-identical whatever the data — and different R gives a
	// different (public) trace.
	var prints [][32]byte
	for _, r := range geometries {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			a := packedTrace(t, r, 3)
			b := packedTrace(t, r, 11)
			if d := trace.Diff(a, b); d != "" {
				t.Fatalf("R=%d: packed mutation trace depends on data: %s", r, d)
			}
			prints = append(prints, a.Fingerprint())
		})
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] == prints[0] {
			t.Fatalf("geometries %d and %d produced identical traces; R is not reflected in the public pattern", geometries[0], geometries[i])
		}
	}
}

func TestPackedScanTraceOneReadPerBlock(t *testing.T) {
	// The scan trace is exactly one read per sealed block, in order —
	// the R× trace reduction the packing exists for.
	for _, r := range []int{1, 4, 16} {
		tr := trace.New()
		f := newPacked(t, 32, r, tr)
		tr.Reset()
		if err := f.Scan(func(int, table.Row, bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
		events := tr.Events()
		if len(events) != f.NumBlocks() {
			t.Fatalf("R=%d: scan recorded %d events, want %d (one per block)", r, len(events), f.NumBlocks())
		}
		for i, ev := range events {
			if ev.Op != trace.Read || int(ev.Index) != i {
				t.Fatalf("R=%d: event %d = %v, want sequential reads", r, i, ev)
			}
		}
	}
}

// --- Zero-allocation scan read path -------------------------------------

func TestScanReadPathZeroAllocs(t *testing.T) {
	// The steady-state scan read path — traced block read, AEAD open
	// into scratch, in-place record decode — allocates nothing per
	// block. Strings alias the scratch (Clone detaches), numerics decode
	// in place, and the sealer reuses its nonce pool and AAD buffer.
	s := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindString, Width: 12},
	)
	e := enclave.MustNew(enclave.Config{})
	f, err := NewFlatGeom(e, "t", s, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 256; i++ {
		if err := f.InsertFast(table.Row{table.Int(i), table.Str("payload")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	fn := func(_ int, rw table.Row, used bool) error {
		if used {
			sum += rw[0].AsInt()
		}
		return nil
	}
	// Warm the lazily-allocated decode scratch.
	if err := f.Scan(fn); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.Scan(fn); err != nil {
			t.Fatal(err)
		}
	})
	// The sealer's 64 KiB nonce pool refills once every ~5461 seals and
	// shows up as a fractional alloc count; anything ≥ 1 would mean a
	// real per-scan allocation, and per-block costs would push it ≥ 16.
	if allocs >= 1 {
		t.Fatalf("scan read path allocates: %.2f allocs per 16-block scan, want 0", allocs)
	}
}

// --- BlockWriter --------------------------------------------------------

func TestBlockWriterFillsAndPads(t *testing.T) {
	for _, r := range geometries {
		tr := trace.New()
		f := newPacked(t, 10, r, tr)
		w := f.NewBlockWriter()
		tr.Reset()
		for i := int64(0); i < 7; i++ {
			if err := w.Append(row(i, "w"), true); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.BumpRows(7)
		// One sealed write per touched block, none re-read.
		wantWrites := (7 + r - 1) / r
		if tr.Len() != wantWrites {
			t.Fatalf("R=%d: writer recorded %d events, want %d block writes", r, tr.Len(), wantWrites)
		}
		rows, err := f.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 7 {
			t.Fatalf("R=%d: %d rows after writer, want 7", r, len(rows))
		}
		// The padded tail of the final block reads as dummies.
		if rw, used, err := f.ReadRow(7); err != nil || used || rw != nil {
			t.Fatalf("R=%d: tail slot not dummy: %v %v %v", r, rw, used, err)
		}
	}
}
