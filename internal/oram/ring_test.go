package oram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/trace"
)

func newTestRing(t *testing.T, capacity, blockSize int) (*enclave.Enclave, *Ring) {
	t.Helper()
	e := enclave.MustNew(enclave.Config{})
	r, err := NewRing(e, "ring", capacity, blockSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return e, r
}

func TestRingWriteThenRead(t *testing.T) {
	_, r := newTestRing(t, 16, 32)
	want := bytes.Repeat([]byte{0x7C}, 32)
	if _, err := r.Access(OpWrite, 9, want); err != nil {
		t.Fatal(err)
	}
	got, err := r.Access(OpRead, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong data")
	}
	// Unwritten blocks read as zero.
	got, _ = r.Access(OpRead, 3, nil)
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("fresh block not zero")
	}
}

func TestRingBounds(t *testing.T) {
	_, r := newTestRing(t, 8, 16)
	if _, err := r.Access(OpRead, 8, nil); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := r.Access(OpWrite, 0, make([]byte, 15)); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestRingModel(t *testing.T) {
	_, r := newTestRing(t, 64, 24)
	model := make(map[int][]byte)
	rng := rand.New(rand.NewPCG(14, 15))
	for i := 0; i < 4000; i++ {
		id := rng.IntN(64)
		if rng.IntN(2) == 0 {
			data := make([]byte, 24)
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			if _, err := r.Access(OpWrite, id, data); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			model[id] = data
		} else {
			got, err := r.Access(OpRead, id, nil)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			want, ok := model[id]
			if !ok {
				want = make([]byte, 24)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d mismatch", i, id)
			}
		}
	}
}

func TestRingUpdate(t *testing.T) {
	_, r := newTestRing(t, 8, 8)
	for i := 0; i < 7; i++ {
		if _, err := r.Update(2, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+3)
			return b
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := r.Access(OpRead, 2, nil)
	if binary.LittleEndian.Uint64(got) != 21 {
		t.Fatalf("update result %d, want 21", binary.LittleEndian.Uint64(got))
	}
}

func TestRingStashBounded(t *testing.T) {
	_, r := newTestRing(t, 256, 16)
	rng := rand.New(rand.NewPCG(3, 4))
	data := make([]byte, 16)
	maxStash := 0
	for i := 0; i < 6000; i++ {
		if _, err := r.Access(OpWrite, rng.IntN(256), data); err != nil {
			t.Fatal(err)
		}
		if s := r.StashSize(); s > maxStash {
			maxStash = s
		}
	}
	// Between scheduled evictions the stash legitimately holds recent
	// accesses plus reshuffle pull-ins; it must not trend upward.
	if maxStash > 150 {
		t.Fatalf("ring stash grew to %d", maxStash)
	}
}

func TestRingRawScan(t *testing.T) {
	_, r := newTestRing(t, 32, 8)
	written := map[int]bool{}
	for _, id := range []int{1, 8, 31} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		if _, err := r.Access(OpWrite, id, b[:]); err != nil {
			t.Fatal(err)
		}
		written[id] = true
	}
	seen := map[int]int{}
	if err := r.RawScan(func(id int, data []byte) error {
		seen[id]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := range written {
		if seen[id] != 1 {
			t.Fatalf("block %d seen %d times", id, seen[id])
		}
	}
}

// TestRingCheaperThanPathORAM is the paper's §8 claim: Ring ORAM moves
// roughly 1.5× less data than Path ORAM per access. We compare untrusted
// block accesses per operation (equal block sizes, equal op streams).
func TestRingCheaperThanPathORAM(t *testing.T) {
	const capacity, blockSize, ops = 256, 64, 2000
	run := func(mk func(e *enclave.Enclave) (Scheme, error)) float64 {
		tr := trace.New()
		tr.EnableCounts()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		s, err := mk(e)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewPCG(8, 8))
		data := make([]byte, blockSize)
		before := tr.TotalCount()
		for i := 0; i < ops; i++ {
			if _, err := s.Access(OpWrite, rng.IntN(capacity), data); err != nil {
				t.Fatal(err)
			}
		}
		return float64(tr.TotalCount()-before) / ops
	}
	path := run(func(e *enclave.Enclave) (Scheme, error) {
		return New(e, "p", capacity, blockSize, Options{})
	})
	// Path ORAM buckets hold Z blocks per untrusted block; normalize to
	// slot-sized accesses for a fair bandwidth comparison.
	pathSlots := path * Z
	ring := run(func(e *enclave.Enclave) (Scheme, error) {
		return NewRing(e, "r", capacity, blockSize, Options{})
	})
	improvement := pathSlots / ring
	if improvement < 1.2 {
		t.Fatalf("ring ORAM bandwidth improvement %.2f×, want ≥1.2× (paper: ~1.5×)", improvement)
	}
	t.Logf("path %.1f slot-accesses/op, ring %.1f → %.2f× improvement", pathSlots, ring, improvement)
}

func TestRingUniformReadPositions(t *testing.T) {
	// Distributional obliviousness: accessing the same block repeatedly
	// must not make any path slot measurably hotter than under random
	// accesses. Cheap sanity check: root-bucket slot reads spread over
	// all slots.
	_, r := newTestRing(t, 64, 8)
	data := make([]byte, 8)
	for i := 0; i < 64; i++ {
		if _, err := r.Access(OpWrite, i%64, data); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New()
	e2 := enclave.MustNew(enclave.Config{Tracer: tr})
	r2, err := NewRing(e2, "r2", 64, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i := 0; i < 400; i++ {
		if _, err := r2.Access(OpRead, 7, nil); err != nil { // same block forever
			t.Fatal(err)
		}
	}
	rootSlot := map[uint32]int{}
	for _, ev := range tr.Events() {
		if ev.Op == trace.Read && int(ev.Index) < RingSlots {
			rootSlot[ev.Index]++
		}
	}
	if len(rootSlot) < RingSlots/2 {
		t.Fatalf("repeated access concentrates on %d root slots: %v", len(rootSlot), rootSlot)
	}
}

// TestRingEvictionTracePinned pins the physical trace of a seeded Ring
// under a fixed read/write/dummy mix. Which stash blocks a scheduled
// eviction places into which bucket steers every later slot read, so any
// change to the eviction's choice — not just to its cost — moves this
// fingerprint. The constant was recorded with the per-level stash scan
// that predates the single-pass eviction.
func TestRingEvictionTracePinned(t *testing.T) {
	const (
		capacity  = 512
		blockSize = 16
		ops       = 3000
		want      = "aefbb546200b82eb7af43a68396ea32d0d08ee7c23fa603aa60c0b8bb0dd5c7d"
	)
	tr := trace.New()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	r, err := NewRing(e, "pin", capacity, blockSize, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewPCG(5, 6))
	data := make([]byte, blockSize)
	evictions, maxStash := 0, 0
	for i := 0; i < ops; i++ {
		before := r.evictG
		switch k := rng.IntN(10); {
		case k < 4:
			_, err = r.Access(OpRead, rng.IntN(capacity), nil)
		case k < 9:
			data[0] = byte(i)
			_, err = r.Access(OpWrite, rng.IntN(capacity), data)
		default:
			err = r.DummyAccess()
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if r.evictG != before {
			evictions++
		}
		maxStash = max(maxStash, r.StashSize())
	}
	if evictions < 100 || maxStash < 20 {
		t.Fatalf("workload too gentle: %d evictions, max stash %d", evictions, maxStash)
	}
	if got := fmt.Sprintf("%x", tr.Fingerprint()); got != want {
		t.Fatalf("eviction trace fingerprint %s, want %s (%d evictions, max stash %d)", got, want, evictions, maxStash)
	}
}

func TestRingObliviousMemoryReleased(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	free := e.Available()
	r, err := NewRing(e, "r", 128, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Available() >= free {
		t.Fatal("ring ORAM charged no oblivious memory")
	}
	r.Close()
	if e.Available() != free {
		t.Fatal("Close leaked reservations")
	}
}
