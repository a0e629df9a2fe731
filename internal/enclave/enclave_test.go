package enclave

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"oblidb/internal/trace"
)

func TestBudgetAccounting(t *testing.T) {
	e := MustNew(Config{ObliviousMemory: 100})
	if e.Budget() != 100 || e.Available() != 100 {
		t.Fatalf("budget=%d available=%d, want 100/100", e.Budget(), e.Available())
	}
	if err := e.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := e.Reserve(50); err == nil {
		t.Fatal("over-budget reserve succeeded")
	}
	if err := e.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if e.Available() != 0 {
		t.Fatalf("available=%d, want 0", e.Available())
	}
	e.Release(100)
	if e.Available() != 100 || e.PeakUsed() != 100 {
		t.Fatalf("available=%d peak=%d, want 100/100", e.Available(), e.PeakUsed())
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	e := MustNew(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on releasing unreserved memory")
		}
	}()
	e.Release(1)
}

func TestNegativeBudgetRejected(t *testing.T) {
	if _, err := New(Config{ObliviousMemory: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestZeroObliviousEnclave(t *testing.T) {
	e := NewZeroOblivious(nil)
	if err := e.Reserve(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Reserve(1); err == nil {
		t.Fatal("zero-OM enclave granted oblivious memory")
	}
}

func TestDefaultBudgetIsPaperDefault(t *testing.T) {
	e := MustNew(Config{})
	if e.Budget() != DefaultObliviousMemory {
		t.Fatalf("default budget %d, want %d", e.Budget(), DefaultObliviousMemory)
	}
}

func TestDeterministicRNGPerKey(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	a := MustNew(Config{Key: key})
	b := MustNew(Config{Key: key})
	for _, label := range []string{"", "t.index", "t.p0"} {
		if a.SeedFor(label) != b.SeedFor(label) {
			t.Fatalf("same key produced different %q seeds", label)
		}
	}
	if a.SeedFor("x") == a.SeedFor("y") {
		t.Fatal("distinct labels share a seed")
	}
	if c := MustNew(Config{Key: bytes.Repeat([]byte{8}, 32)}); c.SeedFor("x") == a.SeedFor("x") {
		t.Fatal("distinct keys share a seed")
	}
}

func TestStoreReadWrite(t *testing.T) {
	e := MustNew(Config{})
	s, err := e.NewStore("t", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 32)
	if err := s.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong data")
	}
	// Unwritten blocks read as zero plaintext.
	got, err = s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("fresh block not zero")
	}
}

func TestStoreBounds(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 4, 16)
	if _, err := s.Read(4); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := s.Read(-1); err == nil {
		t.Fatal("negative read succeeded")
	}
	if err := s.Write(4, make([]byte, 16)); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := s.Write(0, make([]byte, 15)); err == nil {
		t.Fatal("short block write succeeded")
	}
}

func TestStoreTracesAccesses(t *testing.T) {
	tr := trace.New()
	e := MustNew(Config{Tracer: tr})
	s, _ := e.NewStore("t", 4, 16)
	_, _ = s.Read(2)
	_ = s.Write(1, make([]byte, 16))
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("traced %d events, want 2", len(evs))
	}
	if evs[0].Op != trace.Read || evs[0].Index != 2 {
		t.Fatalf("first event %+v, want read of 2", evs[0])
	}
	if evs[1].Op != trace.Write || evs[1].Index != 1 {
		t.Fatalf("second event %+v, want write of 1", evs[1])
	}
}

func TestTamperingDetected(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 4, 16)
	_ = s.Write(0, bytes.Repeat([]byte{1}, 16))
	raw := s.AdversaryRawBlock(0)
	raw[20] ^= 0xFF
	s.AdversarySetRawBlock(0, raw)
	if _, err := s.Read(0); err == nil {
		t.Fatal("tampered block read successfully")
	} else if !strings.Contains(err.Error(), "tampering or rollback") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRollbackDetected(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 4, 16)
	_ = s.Write(0, bytes.Repeat([]byte{1}, 16))
	old := s.AdversaryRawBlock(0) // snapshot revision 1
	_ = s.Write(0, bytes.Repeat([]byte{2}, 16))
	s.AdversarySetRawBlock(0, old) // roll back to revision 1
	if _, err := s.Read(0); err == nil {
		t.Fatal("rolled-back block read successfully")
	}
}

func TestShuffleDetected(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 4, 16)
	_ = s.Write(0, bytes.Repeat([]byte{1}, 16))
	_ = s.Write(1, bytes.Repeat([]byte{2}, 16))
	s.AdversarySwapBlocks(0, 1)
	if _, err := s.Read(0); err == nil {
		t.Fatal("shuffled block read successfully")
	}
}

func TestCrossStoreReplayDetected(t *testing.T) {
	// A block from one table placed in another table's slot must fail.
	e := MustNew(Config{})
	a, _ := e.NewStore("a", 2, 16)
	b, _ := e.NewStore("b", 2, 16)
	_ = a.Write(0, bytes.Repeat([]byte{1}, 16))
	_ = b.Write(0, bytes.Repeat([]byte{2}, 16))
	b.AdversarySetRawBlock(0, a.AdversaryRawBlock(0))
	if _, err := b.Read(0); err == nil {
		t.Fatal("cross-table block replay succeeded")
	}
}

func TestStoreSizeBytes(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 10, 64)
	if s.SizeBytes() != 10*(64+28) {
		t.Fatalf("SizeBytes = %d, want %d", s.SizeBytes(), 10*(64+28))
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	e := MustNew(Config{})
	s, _ := e.NewStore("t", 16, 24)
	f := func(idx uint8, data [24]byte) bool {
		i := int(idx) % 16
		if err := s.Write(i, data[:]); err != nil {
			return false
		}
		got, err := s.Read(i)
		return err == nil && bytes.Equal(got, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitWorkers(t *testing.T) {
	e := MustNew(Config{ObliviousMemory: 4000, Key: make([]byte, 32)})
	ws, err := e.Split(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.Budget() != 1000 {
			t.Fatalf("worker %d budget %d, want 1000", i, w.Budget())
		}
	}
	// Stores created by parent and workers interoperate: same key, and
	// ids never collide (shared atomic counter).
	ps, err := e.NewStore("p", 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Write(0, []byte("parental")); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		ws2, err := w.NewStore("w", 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws2.Write(0, []byte("workerly")); err != nil {
			t.Fatal(err)
		}
	}
	// A worker can read the parent's sealed block and vice versa is
	// unnecessary; the AAD binding (store id) must hold. The read lands on
	// the parent's tally, which every worker shares.
	before := e.IOStats().BlocksOpened
	got, err := ps.ReadIntoVia(ws[0], ws[0].Tracer().Region("x"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "parental" {
		t.Fatalf("cross-enclave read got %q", got)
	}
	if n := e.IOStats().BlocksOpened - before; n != 1 {
		t.Fatalf("worker read added %d blocks to the parent's tally, want 1", n)
	}

	// Worker seed streams are the parent's: reproducible per key, and an
	// ORAM built on a worker draws the stream its name selects.
	e2 := MustNew(Config{ObliviousMemory: 4000, Key: make([]byte, 32)})
	ws2, err := e2.Split(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ws[1].SeedFor("w"), ws2[1].SeedFor("w"); a != b {
		t.Fatalf("worker seed not reproducible: %d vs %d", a, b)
	}
	if a, b := ws[0].SeedFor("w"), e.SeedFor("w"); a != b {
		t.Fatalf("worker seed %d differs from the parent's %d", a, b)
	}
}

func TestSplitValidation(t *testing.T) {
	e := MustNew(Config{})
	if _, err := e.Split(0, nil); err == nil {
		t.Fatal("Split(0) accepted")
	}
	if _, err := e.Split(2, make([]*trace.Tracer, 3)); err == nil {
		t.Fatal("tracer/worker count mismatch accepted")
	}
}

// countingFault counts the accesses it is consulted on and fails none.
type countingFault struct{ n atomic.Int64 }

func (f *countingFault) Access(bool) error { f.n.Add(1); return nil }

// TestDerivedContextContract pins what a derived context shares with its
// parent — key, seed, store-id counter, I/O tally, fault model — and
// what it owns: its sealer always, and its accountant and tracer for a
// Split worker (a Child uses the parent's).
func TestDerivedContextContract(t *testing.T) {
	for _, tc := range []struct {
		name     string
		derive   func(e *Enclave, tr *trace.Tracer) (*Enclave, error)
		ownsAcct bool
	}{
		{"split", func(e *Enclave, tr *trace.Tracer) (*Enclave, error) {
			ws, err := e.Split(2, []*trace.Tracer{tr, trace.New()})
			if err != nil {
				return nil, err
			}
			return ws[0], nil
		}, true},
		{"child", func(e *Enclave, _ *trace.Tracer) (*Enclave, error) { return e.Child() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fault := new(countingFault)
			parentTr := trace.New()
			e := MustNew(Config{ObliviousMemory: 4000, Tracer: parentTr, Fault: fault})
			ownTr := trace.New()
			d, err := tc.derive(e, ownTr)
			if err != nil {
				t.Fatal(err)
			}

			// Owned: the sealer always; accountant and tracer per form.
			if d.sealer == e.sealer {
				t.Fatal("derived context shares the parent's sealer")
			}
			if owns := d.acct != e.acct; owns != tc.ownsAcct {
				t.Fatalf("owns accountant = %v, want %v", owns, tc.ownsAcct)
			}
			wantTr := parentTr
			if tc.ownsAcct {
				wantTr = ownTr
			}
			if d.Tracer() != wantTr {
				t.Fatal("derived context has the wrong tracer")
			}

			// Shared: seed streams.
			if d.SeedFor("x") != e.SeedFor("x") {
				t.Fatal("derived SeedFor differs from the parent's")
			}

			// Shared: key (blocks sealed by one open through the other)
			// and store-id counter (ids distinct).
			ps, err := e.NewStore("p", 1, 8)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := d.NewStore("d", 1, 8)
			if err != nil {
				t.Fatal(err)
			}
			if ps.id == ds.id {
				t.Fatalf("parent and derived stores share id %d", ps.id)
			}
			io0, faults0 := e.IOStats(), fault.n.Load()
			if err := ps.Write(0, []byte("parental")); err != nil {
				t.Fatal(err)
			}
			if err := ds.Write(0, []byte("derived!")); err != nil {
				t.Fatal(err)
			}
			if got, err := ps.ReadIntoVia(d, d.Tracer().Region("p"), 0, nil); err != nil || string(got) != "parental" {
				t.Fatalf("derived read of parent block: %q, %v", got, err)
			}
			if got, err := ds.ReadIntoVia(e, e.Tracer().Region("d"), 0, nil); err != nil || string(got) != "derived!" {
				t.Fatalf("parent read of derived block: %q, %v", got, err)
			}

			// Shared: I/O tally and fault model. The derived context made
			// one write and one read, the parent one of each.
			io := e.IOStats()
			if s, o := io.BlocksSealed-io0.BlocksSealed, io.BlocksOpened-io0.BlocksOpened; s != 2 || o != 2 {
				t.Fatalf("parent tally grew by %d sealed, %d opened; want 2/2", s, o)
			}
			if d.IOStats() != io {
				t.Fatal("derived tally differs from the parent's")
			}
			if n := fault.n.Load() - faults0; n != 4 {
				t.Fatalf("fault injector saw %d accesses, want 4", n)
			}
		})
	}
}
