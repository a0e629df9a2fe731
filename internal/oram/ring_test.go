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

// TestRingRawScanAllocsFlat pins that a raw scan reads every slot into
// the ring's own scratch: with a no-op callback it allocates the same at
// two capacities, whatever the number of slots it reads.
func TestRingRawScanAllocsFlat(t *testing.T) {
	allocs := func(capacity int) float64 {
		_, r := newTestRing(t, capacity, 32)
		data := make([]byte, 32)
		for id := 0; id < capacity; id += 3 {
			if _, err := r.Access(OpWrite, id, data); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if err := r.RawScan(func(int, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Fatalf("raw scan allocates %v times at capacity 64, %v at 1024", small, large)
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
		// Uncached: the §8 claim compares scheme with scheme.
		return newRing(e, "r", capacity, blockSize, Options{}, 0)
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
	// accesses. Cheap sanity check: slot reads on the buckets of the
	// shallowest uncached level (the levels above it are in enclave
	// memory) spread over all slots.
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
	if r2.topLevels == 0 {
		t.Fatal("ring has no tree-top cache")
	}
	// Level k's buckets are 2^k−1 … 2^(k+1)−2, so its slots start where
	// the cache ends and span 2^k buckets.
	lo, hi := r2.cached, r2.cached+(1<<r2.topLevels)*RingSlots
	slot := map[uint32]int{}
	for i := 0; i < 400; i++ {
		n := tr.Len()
		if _, err := r2.Access(OpRead, 7, nil); err != nil { // same block forever
			t.Fatal(err)
		}
		if r2.accesses == 0 {
			continue // a scheduled eviction reads every slot; count online reads only
		}
		for _, ev := range tr.Events()[n:] {
			if ev.Op == trace.Read && int(ev.Index) < hi {
				slot[ev.Index%RingSlots]++
			}
		}
	}
	for _, ev := range tr.Events() {
		if int(ev.Index) < lo {
			t.Fatalf("cached slot %d reached the store", ev.Index)
		}
	}
	if len(slot) < RingSlots/2 {
		t.Fatalf("repeated access concentrates on %d slots of level %d: %v", len(slot), r2.topLevels, slot)
	}
}

// TestRingEvictionTracePinned pins the physical trace of a seeded Ring
// under a fixed read/write/dummy mix. Which stash blocks a scheduled
// eviction places into which bucket steers every later slot read, so any
// change to the eviction's choice — not just to its cost — moves this
// fingerprint. The ring runs with its default tree-top cache (4 of 9
// levels, slots below 240). The constant was recorded from the uncached
// ring that predates the cache, with every event on a slot below 240
// removed: the cache must change nothing but dropping those events.
func TestRingEvictionTracePinned(t *testing.T) {
	const (
		capacity  = 512
		blockSize = 16
		ops       = 3000
		want      = "75608538bc7722cf243ae738fea78c7b9d1c8b8560eac8cd0c9bca6ef90e8612"
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
	if r.topLevels == 0 {
		t.Fatal("ring has no tree-top cache")
	}
	// The ring's own charge is 9 B of metadata per slot plus the tree-top
	// cache's plaintext slots; the position map charges on top of it.
	meta := len(r.meta) * RingSlots * 9
	cache := ((1 << r.topLevels) - 1) * RingSlots * r.blockSize
	if r.reserved != meta+cache {
		t.Fatalf("ring reserved %d bytes, want %d metadata + %d cache", r.reserved, meta, cache)
	}
	charged := free - e.Available()
	r.Close()
	if e.Available() != free {
		t.Fatal("Close leaked reservations")
	}
	u, err := newRing(e, "u", 128, 16, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := charged - (free - e.Available()); got != cache {
		t.Fatalf("tree-top cache charged %d bytes over the uncached ring, want %d", got, cache)
	}
	u.Close()
}

// TestRingTopLevelsRule pins the tree-top cache depth: the largest
// k ≤ levels/2 whose (2^k−1)·RingSlots·blockSize fits a sixteenth of
// the oblivious-memory budget.
func TestRingTopLevelsRule(t *testing.T) {
	for _, c := range []struct {
		budget, capacity, blockSize, levels, k int
	}{
		{0, 27564, 345, 15, 7}, // kv under the default 20 MB: 701 040 B
		{0, 512, 16, 9, 4},     // capped at levels/2
		{8 << 20, 27564, 345, 15, 6},
		{16 << 10, 64, 32, 6, 1},
		{16 << 10, 64, 128, 6, 0}, // one bucket does not fit
	} {
		e := enclave.MustNew(enclave.Config{ObliviousMemory: c.budget})
		r, err := NewRing(e, "r", c.capacity, c.blockSize, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Levels() != c.levels || r.topLevels != c.k {
			t.Errorf("budget %d, %d × %d B: levels %d, k %d; want %d, %d",
				c.budget, c.capacity, c.blockSize, r.Levels(), r.topLevels, c.levels, c.k)
		}
		r.Close()
	}
}

// TestRingAccessesPerOpMatchesTrace checks the planner's price against
// the machine: after a warm-up, the traced untrusted reads plus writes
// per logical operation are within 1% of AccessesPerOp, with and
// without the tree-top cache.
func TestRingAccessesPerOpMatchesTrace(t *testing.T) {
	const warm, ops = 1024, 2048 // multiples of RingEvictRate
	for _, g := range []struct{ capacity, blockSize int }{
		{256, 64},
		{4096, 32},
		{27564, 345}, // the point_read benchmark's kv index
	} {
		for _, def := range []bool{false, true} {
			tr := &trace.Tracer{}
			tr.EnableCounts()
			e := enclave.MustNew(enclave.Config{Tracer: tr})
			var r *Ring
			var err error
			if def {
				r, err = NewRing(e, "r", g.capacity, g.blockSize, Options{Seed: 3})
			} else {
				r, err = newRing(e, "r", g.capacity, g.blockSize, Options{Seed: 3}, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, 2))
			data := make([]byte, g.blockSize)
			var before uint64
			for i := 0; i < warm+ops; i++ {
				if i == warm {
					before = tr.TotalCount()
				}
				if _, err := r.Access(OpWrite, rng.IntN(g.capacity), data); err != nil {
					t.Fatal(err)
				}
			}
			perOp := float64(tr.TotalCount()-before) / ops
			want := float64(r.AccessesPerOp())
			if perOp < want*0.99 || perOp > want*1.01 {
				t.Errorf("capacity %d, k %d: traced %.2f accesses/op, AccessesPerOp %d",
					g.capacity, r.topLevels, perOp, r.AccessesPerOp())
			}
			t.Logf("capacity %d, levels %d, k %d: traced %.2f accesses/op, priced %d",
				g.capacity, r.Levels(), r.topLevels, perOp, r.AccessesPerOp())
			r.Close()
		}
	}
}

// TestRingTopCacheFiltersTrace is the tree-top cache's leakage argument
// as a test: the same seeded mix of reads, writes, updates, dummies and
// a bulk-load prefix, run with and without the cache, returns the same
// bytes and keeps the same stash after every operation, and the cached
// ring's physical trace is exactly the uncached one with every event on
// a cached slot removed — a function of the old trace, so it reveals
// nothing the old trace did not.
func TestRingTopCacheFiltersTrace(t *testing.T) {
	const capacity, blockSize, ops = 300, 24, 2500
	_, levels := treeGeometry(capacity)
	for _, k := range []int{1, levels / 2} {
		t.Run(fmt.Sprintf("k=%d/recursive=false", k), func(t *testing.T) {
			mk := func(k int) (*trace.Tracer, *Ring) {
				tr := trace.New()
				e := enclave.MustNew(enclave.Config{Tracer: tr})
				r, err := newRing(e, "ring", capacity, blockSize, Options{Seed: 9}, k)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.Close)
				return tr, r
			}
			trBase, base := mk(0)
			trTop, top := mk(k)
			rng := rand.New(rand.NewPCG(uint64(k), 17))
			data := make([]byte, blockSize)
			fill := func(tag int) {
				for j := range data {
					data[j] = byte(tag + j)
				}
			}
			for id := 0; id < capacity/2; id++ {
				fill(id)
				if err := base.BulkStage(id, data); err != nil {
					t.Fatal(err)
				}
				if err := top.BulkStage(id, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := base.BulkCommit(); err != nil {
				t.Fatal(err)
			}
			if err := top.BulkCommit(); err != nil {
				t.Fatal(err)
			}
			bump := func(b []byte) []byte { b[0]++; return b }
			for i := 0; i < ops; i++ {
				id := rng.IntN(capacity)
				var got [2][]byte
				for j, r := range []*Ring{base, top} {
					var err error
					switch op := i % 7; {
					case op < 3:
						got[j], err = r.Access(OpRead, id, nil)
					case op < 5:
						fill(i)
						got[j], err = r.Access(OpWrite, id, data)
					case op < 6:
						got[j], err = r.Update(id, bump)
					default:
						err = r.DummyAccess()
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if !bytes.Equal(got[0], got[1]) {
					t.Fatalf("op %d: cached ring returned %x, uncached %x", i, got[1], got[0])
				}
				if base.StashSize() != top.StashSize() {
					t.Fatalf("op %d: stash %d with cache, %d without", i, top.StashSize(), base.StashSize())
				}
			}
			// The ring's store is the first region either tracer allocates.
			var want []trace.Event
			for _, ev := range trBase.Events() {
				if ev.Region != 0 || int(ev.Index) >= top.cached {
					want = append(want, ev)
				}
			}
			got := trTop.Events()
			if len(got) != len(want) {
				t.Fatalf("cached trace has %d events, filtered uncached trace %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: cached %+v, filtered uncached %+v", i, got[i], want[i])
				}
			}
			if len(want) == len(trBase.Events()) {
				t.Fatal("cache removed no events")
			}
		})
	}
}
