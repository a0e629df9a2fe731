package oram

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"oblidb/internal/enclave"
	"oblidb/internal/trace"
)

func newTestORAM(t *testing.T, capacity, blockSize int, opts Options) (*enclave.Enclave, *ORAM) {
	t.Helper()
	e := enclave.MustNew(enclave.Config{})
	o, err := New(e, "test", capacity, blockSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return e, o
}

func TestReadNeverWrittenIsZero(t *testing.T) {
	_, o := newTestORAM(t, 16, 32, Options{})
	got, err := o.Access(OpRead, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestWriteThenRead(t *testing.T) {
	_, o := newTestORAM(t, 16, 32, Options{})
	want := bytes.Repeat([]byte{0x5A}, 32)
	if _, err := o.Access(OpWrite, 7, want); err != nil {
		t.Fatal(err)
	}
	got, err := o.Access(OpRead, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong data")
	}
}

func TestBounds(t *testing.T) {
	_, o := newTestORAM(t, 4, 8, Options{})
	if _, err := o.Access(OpRead, 4, nil); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := o.Access(OpRead, -1, nil); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := o.Access(OpWrite, 0, make([]byte, 7)); err == nil {
		t.Fatal("short block accepted")
	}
}

func TestUpdate(t *testing.T) {
	_, o := newTestORAM(t, 8, 8, Options{})
	for i := 0; i < 5; i++ {
		if _, err := o.Update(3, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
			return b
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := o.Access(OpRead, 3, nil)
	if binary.LittleEndian.Uint64(got) != 5 {
		t.Fatalf("update applied %d times, want 5", binary.LittleEndian.Uint64(got))
	}
}

// modelCheck runs a random op sequence against a map model.
func modelCheck(t *testing.T, o *ORAM, capacity, blockSize, ops int, seed uint64) {
	t.Helper()
	model := make(map[int][]byte)
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := 0; i < ops; i++ {
		id := rng.IntN(capacity)
		if rng.IntN(2) == 0 {
			data := make([]byte, blockSize)
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			if _, err := o.Access(OpWrite, id, data); err != nil {
				t.Fatal(err)
			}
			model[id] = data
		} else {
			got, err := o.Access(OpRead, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := model[id]
			if !ok {
				want = make([]byte, blockSize)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d mismatch", i, id)
			}
		}
	}
}

func TestModelNonRecursive(t *testing.T) {
	_, o := newTestORAM(t, 64, 24, Options{})
	modelCheck(t, o, 64, 24, 2000, 1)
}

func TestModelRecursive(t *testing.T) {
	// 1 024 blocks at 64 entries per map block: the map spans 16 blocks.
	_, o := newTestORAM(t, 1024, 24, Options{Recursive: true})
	modelCheck(t, o, 1024, 24, 2000, 2)
}

func TestModelCapacityOne(t *testing.T) {
	_, o := newTestORAM(t, 1, 8, Options{})
	modelCheck(t, o, 1, 8, 100, 3)
}

func TestStashStaysBounded(t *testing.T) {
	_, o := newTestORAM(t, 256, 16, Options{})
	rng := rand.New(rand.NewPCG(9, 9))
	data := make([]byte, 16)
	maxStash := 0
	for i := 0; i < 5000; i++ {
		if _, err := o.Access(OpWrite, rng.IntN(256), data); err != nil {
			t.Fatal(err)
		}
		if s := o.StashSize(); s > maxStash {
			maxStash = s
		}
	}
	// Z=4 keeps the stash tiny; 60 is a generous ceiling that would only
	// trip on a real eviction bug.
	if maxStash > 60 {
		t.Fatalf("stash grew to %d blocks", maxStash)
	}
}

func TestAccessCountFixedPerOp(t *testing.T) {
	// ORAM's guarantee: equal-length op sequences are indistinguishable.
	// Every access must touch exactly 2*levels untrusted blocks whatever
	// the op, the id, or the data.
	tr := trace.New()
	tr.EnableCounts()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	o, err := New(e, "t", 32, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	data := make([]byte, 16)
	before := tr.TotalCount()
	ops := []func() error{
		func() error { _, err := o.Access(OpWrite, 0, data); return err },
		func() error { _, err := o.Access(OpRead, 31, nil); return err },
		func() error { _, err := o.Update(7, func(b []byte) []byte { return b }); return err },
		func() error { return o.DummyAccess() },
	}
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		after := tr.TotalCount()
		if int(after-before) != o.AccessesPerOp() {
			t.Fatalf("op %d made %d accesses, want %d", i, after-before, o.AccessesPerOp())
		}
		before = after
	}
}

func TestPathShape(t *testing.T) {
	// Every access reads then writes one root-to-leaf path: levels reads
	// followed by levels writes of the same buckets in reverse order.
	tr := trace.New()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	o, err := New(e, "t", 32, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	tr.Reset()
	if _, err := o.Access(OpRead, 3, nil); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 2*o.Levels() {
		t.Fatalf("%d events, want %d", len(evs), 2*o.Levels())
	}
	for i := 0; i < o.Levels(); i++ {
		if evs[i].Op != trace.Read {
			t.Fatalf("event %d is %v, want read", i, evs[i].Op)
		}
		w := evs[2*o.Levels()-1-i]
		if w.Op != trace.Write || w.Index != evs[i].Index {
			t.Fatalf("write-back does not mirror read path at level %d", i)
		}
	}
	// Root must always be bucket 0.
	if evs[0].Index != 0 {
		t.Fatalf("path does not start at root: %d", evs[0].Index)
	}
}

func TestRecursiveCostsOneChildAccess(t *testing.T) {
	tr := trace.New()
	tr.EnableCounts()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	// 512 blocks at 64 entries per map block: an 8-block child ORAM.
	o, err := New(e, "t", 512, 16, Options{Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	child := o.pos.(*recursiveMap).child
	want := o.AccessesPerOp() + child.AccessesPerOp()
	before := tr.TotalCount()
	if _, err := o.Access(OpRead, 5, nil); err != nil {
		t.Fatal(err)
	}
	if got := int(tr.TotalCount() - before); got != want {
		t.Fatalf("recursive access made %d untrusted accesses, want %d", got, want)
	}
}

func TestObliviousMemoryCharged(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	free := e.Available()
	o, err := New(e, "t", 1000, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := free - e.Available(); got != 1000*PosBytesPerBlock {
		t.Fatalf("charged %d bytes, want %d", got, 1000*PosBytesPerBlock)
	}
	o.Close()
	if e.Available() != free {
		t.Fatal("Close did not release the position map reservation")
	}
}

func TestRecursiveUsesLessObliviousMemory(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	free := e.Available()
	o, err := New(e, "t", 10000, 16, Options{Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	charged := free - e.Available()
	if charged >= 10000*PosBytesPerBlock/10 {
		t.Fatalf("recursive map charged %d bytes, want ≪ %d", charged, 10000*PosBytesPerBlock)
	}
}

func TestUntrustedOverheadRoughly4x(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	const capacity, blockSize = 1024, 64
	o, err := New(e, "t", capacity, blockSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	raw := capacity * blockSize
	ratio := float64(o.UntrustedBytes()) / float64(raw)
	if ratio < 2.5 || ratio > 8 {
		t.Fatalf("untrusted overhead %.1f×, want ~4× (§3.3)", ratio)
	}
}

func TestInvalidConfigs(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	if _, err := New(e, "t", 0, 8, Options{}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(e, "t", 8, 0, Options{}); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestUpdateBadLength(t *testing.T) {
	_, o := newTestORAM(t, 4, 8, Options{})
	if _, err := o.Update(0, func(b []byte) []byte { return b[:4] }); err == nil {
		t.Fatal("update fn shrinking the block accepted")
	}
}

func TestRawScanFindsEveryBlockOnce(t *testing.T) {
	_, o := newTestORAM(t, 32, 8, Options{})
	written := map[int]byte{}
	for _, id := range []int{0, 3, 7, 15, 31} {
		data := bytes.Repeat([]byte{byte(id + 1)}, 8)
		if _, err := o.Access(OpWrite, id, data); err != nil {
			t.Fatal(err)
		}
		written[id] = byte(id + 1)
	}
	seen := map[int]int{}
	if err := o.RawScan(func(id int, data []byte) error {
		seen[id]++
		if want, ok := written[id]; ok && data[0] != want {
			t.Fatalf("block %d has wrong content", id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := range written {
		if seen[id] != 1 {
			t.Fatalf("block %d seen %d times in raw scan", id, seen[id])
		}
	}
}

func TestRawScanTraceLinear(t *testing.T) {
	tr := trace.New()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	o, err := New(e, "t", 16, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Access(OpWrite, 5, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if err := o.RawScan(func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Events() {
		if e.Op != trace.Read || int(e.Index) != i {
			t.Fatalf("raw scan access %d is %+v; want sequential reads", i, e)
		}
	}
}

func TestAccessorGetters(t *testing.T) {
	_, o := newTestORAM(t, 100, 24, Options{})
	if o.Capacity() != 100 || o.BlockSize() != 24 {
		t.Fatalf("getters: %d/%d", o.Capacity(), o.BlockSize())
	}
	if o.Levels() < 1 || o.AccessesPerOp() != 2*o.Levels() {
		t.Fatalf("levels=%d accesses=%d", o.Levels(), o.AccessesPerOp())
	}
}

func TestReadYourWritesProperty(t *testing.T) {
	_, o := newTestORAM(t, 32, 8, Options{})
	f := func(id uint8, v uint64) bool {
		i := int(id) % 32
		var data [8]byte
		binary.LittleEndian.PutUint64(data[:], v)
		if _, err := o.Access(OpWrite, i, data[:]); err != nil {
			return false
		}
		got, err := o.Access(OpRead, i, nil)
		return err == nil && bytes.Equal(got, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
