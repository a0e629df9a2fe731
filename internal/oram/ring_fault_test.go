package oram

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/faultstore"
	"oblidb/internal/trace"
)

// ringFaultOp is one step of the fault workload: a read, a write, an
// update that adds val to every byte, or a dummy access.
type ringFaultOp struct {
	kind, id int
	val      byte
}

// runRingFaults runs ops on a fresh ring whose store fails the one
// access failAt (none when negative), then reads every block. base
// shifts every value written, never the shape. It checks that the
// faulted call left its block holding either its earlier value or the
// value the call wrote, that every later read and the final read of
// every block match, and that the stash stays bounded. It returns the
// trace fingerprint and the workload's store access count. After the
// faulted call it checks that a raw scan yields every block an
// operation has touched exactly once, with its value.
func runRingFaults(t *testing.T, ops []ringFaultOp, base byte, failAt int) ([32]byte, uint64) {
	t.Helper()
	const capacity, blockSize = 24, 8
	sched := faultstore.Schedule{}
	if failAt >= 0 {
		sched = faultstore.Schedule{FailAt: []uint64{uint64(failAt)}, MaxFaults: 1}
	}
	inj := faultstore.NewInjector(sched)
	tr := trace.New()
	e := enclave.MustNew(enclave.Config{Tracer: tr, Fault: inj})
	r, err := NewRing(e, "rf", capacity, blockSize, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Every slot starts consumed, so each bucket's first read is an
	// early reshuffle: the faults land in reshuffles as well as in path
	// reads and scheduled evictions.
	for b := range r.meta {
		for s := range r.meta[b].used {
			r.meta[b].used[s] = true
		}
	}
	model := make([][]byte, capacity)
	for i := range model {
		model[i] = make([]byte, blockSize)
	}
	faulted := false
	touched := make(map[int]bool)
	for i, op := range ops {
		if op.kind != 3 {
			touched[op.id] = true
		}
		want := bytes.Repeat([]byte{base + op.val}, blockSize)
		before := model[op.id]
		var got []byte
		switch op.kind {
		case 0:
			got, err = r.Access(OpRead, op.id, nil)
			want = before
		case 1:
			got, err = r.Access(OpWrite, op.id, want)
		case 2:
			for j := range want {
				want[j] = before[j] + op.val
			}
			got, err = r.Update(op.id, func(b []byte) []byte {
				for j := range b {
					b[j] += op.val
				}
				return b
			})
		default:
			err = r.DummyAccess()
			want, got = before, before
		}
		if err != nil {
			if !errors.Is(err, faultstore.ErrInjected) || faulted {
				t.Fatalf("op %d: %v", i, err)
			}
			faulted = true
			if got, err = r.Access(OpRead, op.id, nil); err != nil {
				t.Fatalf("op %d: read after the fault: %v", i, err)
			}
			if !bytes.Equal(got, before) && !bytes.Equal(got, want) {
				t.Fatalf("fault at access %d, op %d: block %d holds %v, want %v or %v", failAt, i, op.id, got, before, want)
			}
			want = got
			model[op.id] = bytes.Clone(want)
			checkRawScanOnce(t, r, model, touched, failAt)
		} else if !bytes.Equal(got, want) {
			t.Fatalf("fault at access %d, op %d: block %d reads %v, want %v", failAt, i, op.id, got, want)
		}
		model[op.id] = bytes.Clone(want)
		if s := r.StashSize(); s > 150 {
			t.Fatalf("fault at access %d, op %d: stash grew to %d", failAt, i, s)
		}
	}
	n := inj.Accesses()
	for id := range model {
		got, err := r.Access(OpRead, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model[id]) {
			t.Fatalf("fault at access %d: block %d ends as %v, want %v", failAt, id, got, model[id])
		}
	}
	if failAt >= 0 && inj.Injected() != 1 {
		t.Fatalf("fault at access %d never fired", failAt)
	}
	return tr.Fingerprint(), n
}

// TestRingFaultAtEveryAccess pins the ring's fault atomicity: a seeded
// workload of reads, writes, updates and dummies, crossing scheduled
// evictions and early reshuffles, runs with one store fault at each of
// its accesses in turn and then goes on fault-free. The faulted call's
// block must hold its earlier value or the call's own, every other
// block must keep its value, and the stash must stay bounded: a fault
// in a path read is finished by the next access, and a block leaves the
// stash only once the write that places it lands. The same fault
// schedule over different values must give identical traces.
func TestRingFaultAtEveryAccess(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	ops := make([]ringFaultOp, 40)
	for i := range ops {
		ops[i] = ringFaultOp{kind: rng.IntN(4), id: rng.IntN(24), val: byte(1 + rng.IntN(9))}
	}
	_, n := runRingFaults(t, ops, 0, -1)
	for at := 0; at < int(n); at++ {
		fp, _ := runRingFaults(t, ops, 0, at)
		if at%8 == 0 {
			if other, _ := runRingFaults(t, ops, 100, at); other != fp {
				t.Fatalf("fault at access %d: traces differ with the values", at)
			}
		}
	}
}

// checkRawScanOnce requires a raw scan to yield no block twice, each
// with its model value, and every touched block: a block lives in the
// stash or in exactly one slot's metadata, never in both.
func checkRawScanOnce(t *testing.T, r *Ring, model [][]byte, touched map[int]bool, failAt int) {
	t.Helper()
	seen := make(map[int]bool)
	if err := r.RawScan(func(id int, data []byte) error {
		if seen[id] {
			t.Fatalf("fault at access %d: raw scan yields block %d twice", failAt, id)
		}
		seen[id] = true
		if !bytes.Equal(data, model[id]) {
			t.Fatalf("fault at access %d: raw scan reads block %d as %v, want %v", failAt, id, data, model[id])
		}
		return nil
	}); err != nil {
		t.Fatalf("fault at access %d: raw scan: %v", failAt, err)
	}
	for id := range touched {
		if !seen[id] {
			t.Fatalf("fault at access %d: raw scan misses block %d", failAt, id)
		}
	}
}
