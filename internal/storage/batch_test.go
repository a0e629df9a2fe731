package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// slotDump renders every row slot of f in order, so two tables compare
// slot for slot, not just as row multisets.
func slotDump(t *testing.T, f *Flat) []string {
	t.Helper()
	out := make([]string, 0, f.Capacity())
	if err := f.Scan(func(i int, r table.Row, used bool) error {
		if used {
			out = append(out, fmt.Sprintf("%d:%d/%s", i, r[0].AsInt(), r[1].AsString()))
		} else {
			out = append(out, fmt.Sprintf("%d:-", i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomBatch draws a run of n mutations over keys [0, keys): inserts,
// deletes and updates of a key or a key residue, with updates marked
// validated or not at random. Inserts are capped at room.
func randomBatch(rng *rand.Rand, n, keys, room int) []Mutation {
	muts := make([]Mutation, 0, n)
	for len(muts) < n {
		k := rng.Int64N(int64(keys))
		var pred table.Pred = func(r table.Row) bool { return r[0].AsInt() == k }
		if rng.IntN(4) == 0 {
			m := k%3 + 2
			pred = func(r table.Row) bool { return r[0].AsInt()%m == 0 }
		}
		switch op := rng.IntN(3); {
		case op == 0 && room > 0:
			room--
			muts = append(muts, Mutation{Kind: MutInsert, Row: row(k, fmt.Sprintf("i%d", rng.IntN(100)))})
		case op == 1:
			muts = append(muts, Mutation{Kind: MutDelete, Pred: pred})
		default:
			v := fmt.Sprintf("u%d", rng.IntN(100))
			muts = append(muts, Mutation{Kind: MutUpdate, Pred: pred, Validated: rng.IntN(2) == 0,
				Upd: func(r table.Row) table.Row { r[1] = table.Str(v); return r }})
		}
	}
	return muts
}

// TestApplyBatchMatchesOneByOne is the batch's defining property: a run
// of mutations applied in one pass leaves the table exactly as the same
// mutations applied one by one through Insert, Delete and Update —
// slot for slot, with the same per-mutation counts, row count and
// append behavior — at the paper's geometry and packed ones.
func TestApplyBatchMatchesOneByOne(t *testing.T) {
	for _, r := range []int{1, 3, 95} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(r), 7))
			capacity := 3 * r
			if capacity < 24 {
				capacity = 24
			}
			keys := capacity / 2
			batched := newPacked(t, capacity, r, nil)
			single := newPacked(t, capacity, r, nil)
			for i := 0; i < capacity/2; i++ {
				rw := row(rng.Int64N(int64(keys)), "seed")
				if err := batched.InsertFast(rw, nil); err != nil {
					t.Fatal(err)
				}
				if err := single.InsertFast(rw, nil); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 40; round++ {
				muts := randomBatch(rng, 1+rng.IntN(8), keys, batched.Capacity()-batched.NumRows())
				got, err := batched.ApplyBatch(muts)
				if err != nil {
					t.Fatalf("round %d: ApplyBatch: %v", round, err)
				}
				for i, m := range muts {
					var want int
					switch m.Kind {
					case MutInsert:
						err, want = single.Insert(m.Row), 1
					case MutDelete:
						want, err = single.Delete(m.Pred)
					case MutUpdate:
						want, err = single.Update(m.Pred, m.Upd)
					}
					if err != nil {
						t.Fatalf("round %d mutation %d: %v", round, i, err)
					}
					if got[i] != want {
						t.Fatalf("round %d mutation %d (kind %d): batch count %d, one by one %d", round, i, m.Kind, got[i], want)
					}
				}
				a, b := slotDump(t, batched), slotDump(t, single)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("round %d: slot %d is %s batched, %s one by one", round, i, a[i], b[i])
					}
				}
				if batched.NumRows() != single.NumRows() || batched.AppendRoom() != single.AppendRoom() {
					t.Fatalf("round %d: rows %d/%d, append room %d/%d", round,
						batched.NumRows(), single.NumRows(), batched.AppendRoom(), single.AppendRoom())
				}
			}
		})
	}
}

// TestApplyBatchDeletesRowInsertedEarlierInRun: a delete sees the rows
// the run inserted before it, as it would one statement at a time.
func TestApplyBatchDeletesRowInsertedEarlierInRun(t *testing.T) {
	f := newPacked(t, 8, 4, nil)
	counts, err := f.ApplyBatch([]Mutation{
		{Kind: MutInsert, Row: row(1, "a")},
		{Kind: MutInsert, Row: row(2, "b")},
		{Kind: MutDelete, Pred: func(r table.Row) bool { return r[0].AsInt() == 1 }},
		{Kind: MutInsert, Row: row(3, "c")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(counts) != "[1 1 1 1]" || f.NumRows() != 2 {
		t.Fatalf("counts %v, rows %d", counts, f.NumRows())
	}
	// The third insert reuses the slot the delete freed.
	if d := slotDump(t, f); d[0] != "0:3/c" || d[1] != "1:2/b" {
		t.Fatalf("slots %v", d[:2])
	}
}

// batchTrace records the trace of one three-statement batch over a
// loaded table whose keys start at base.
func batchTrace(t *testing.T, r int, base int64, validated bool) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	f := newPacked(t, 32, r, tr)
	for i := int64(0); i < 20; i++ {
		if err := f.InsertFast(row(base+i, "x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.Reset()
	if _, err := f.ApplyBatch([]Mutation{
		{Kind: MutInsert, Row: row(base+100, "new")},
		{Kind: MutDelete, Pred: func(rw table.Row) bool { return rw[0].AsInt() == base+3 }},
		{Kind: MutUpdate, Validated: validated,
			Pred: func(rw table.Row) bool { return rw[0].AsInt() == base+7 },
			Upd:  func(rw table.Row) table.Row { rw[1] = table.Str("u"); return rw }},
	}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestApplyBatchTracePinned pins the batch's trace: one read then one
// write per block, in block order, whatever the batch holds — preceded
// by one read per block exactly when an unvalidated update is present —
// and byte-identical for same-shape batches over different data.
func TestApplyBatchTracePinned(t *testing.T) {
	for _, r := range []int{1, 4} {
		blocks := (32 + r - 1) / r
		for _, validated := range []bool{true, false} {
			a := batchTrace(t, r, 0, validated)
			b := batchTrace(t, r, 1000, validated)
			if d := trace.Diff(a, b); d != "" {
				t.Fatalf("R=%d validated=%v: batch trace depends on data: %s", r, validated, d)
			}
			var want []trace.Event
			if !validated {
				for i := 0; i < blocks; i++ {
					want = append(want, trace.Event{Op: trace.Read, Index: uint32(i)})
				}
			}
			for i := 0; i < blocks; i++ {
				want = append(want, trace.Event{Op: trace.Read, Index: uint32(i)}, trace.Event{Op: trace.Write, Index: uint32(i)})
			}
			got := a.Events()
			if len(got) != len(want) {
				t.Fatalf("R=%d validated=%v: %d events, want %d", r, validated, len(got), len(want))
			}
			for i := range want {
				if got[i].Op != want[i].Op || got[i].Index != want[i].Index {
					t.Fatalf("R=%d validated=%v: event %d = %v, want %v", r, validated, i, got[i], want[i])
				}
			}
		}
	}
}

// cutAt is a store fault injector that fails the one access numbered
// at, counting every access; at < 0 fails nothing.
type cutAt struct{ n, at int }

func (c *cutAt) Access(bool) error {
	c.n++
	if c.n-1 == c.at {
		return errors.New("cut")
	}
	return nil
}

// TestApplyBatchRestoreUndoesCutPass: a batch whose pass a store fault
// cuts short at any access is undone by Restore from its mutations'
// Priors — every slot, the row count and the append room back to their
// values before the batch — in one read and one write per block, with
// a trace that is byte-identical for a same-shape batch over different
// data.
func TestApplyBatchRestoreUndoesCutPass(t *testing.T) {
	for _, r := range []int{1, 3, 95} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			capacity := max(3*r, 24)
			keys := capacity / 2
			load := func(seed uint64, holes bool) (*Flat, *cutAt, *trace.Tracer) {
				cut, tr := &cutAt{at: -1}, trace.New()
				e := enclave.MustNew(enclave.Config{Tracer: tr, Key: make([]byte, 32), Fault: cut})
				f, err := NewFlatGeom(e, "t", kvSchema(t), capacity, r)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 3))
				for i := 0; i < capacity/2; i++ {
					if err := f.InsertFast(row(rng.Int64N(int64(keys)), "seed"), nil); err != nil {
						t.Fatal(err)
					}
				}
				if holes {
					// A delete leaves holes and sends the append cursor
					// to the capacity, so inserts fill holes below it.
					if _, err := f.Delete(func(rw table.Row) bool { return rw[0].AsInt()%5 == 0 }); err != nil {
						t.Fatal(err)
					}
				}
				return f, cut, tr
			}
			a, cutA, trA := load(1, true)
			b, cutB, trB := load(2, false)
			rng := rand.New(rand.NewPCG(uint64(r), 11))
			for round := 0; round < 8; round++ {
				muts := randomBatch(rng, 1+rng.IntN(8), keys, a.Capacity()-max(a.NumRows(), b.NumRows()))
				check := false
				for _, m := range muts {
					check = check || m.Kind == MutUpdate && !m.Validated
				}
				accesses := 2 * a.NumBlocks()
				if check {
					accesses += a.NumBlocks()
				}
				for k := 0; k < accesses; k++ {
					var prints [2][32]byte
					for i, tc := range []struct {
						f   *Flat
						cut *cutAt
						tr  *trace.Tracer
					}{{a, cutA, trA}, {b, cutB, trB}} {
						f := tc.f
						want, rows, room := slotDump(t, f), f.NumRows(), f.AppendRoom()
						priors := make([]*Prior, len(muts))
						batch := make([]Mutation, len(muts))
						for j, m := range muts {
							priors[j] = new(Prior)
							m.Prior = priors[j]
							batch[j] = m
						}
						tc.tr.Reset()
						tc.cut.n, tc.cut.at = 0, k
						if _, err := f.ApplyBatch(batch); err == nil {
							t.Fatalf("round %d: fault at access %d of %d never fired", round, k, accesses)
						}
						tc.cut.at = -1
						restore := len(tc.tr.Events())
						if err := f.Restore(priors); err != nil {
							t.Fatal(err)
						}
						events := tc.tr.Events()[restore:]
						prints[i] = tc.tr.Fingerprint()
						got := slotDump(t, f)
						for s := range want {
							if got[s] != want[s] {
								t.Fatalf("round %d, fault at access %d: slot %d restored to %s, was %s", round, k, s, got[s], want[s])
							}
						}
						if f.NumRows() != rows || f.AppendRoom() != room {
							t.Fatalf("round %d, fault at access %d: rows %d, append room %d; were %d, %d",
								round, k, f.NumRows(), f.AppendRoom(), rows, room)
						}
						if len(events) != 2*f.NumBlocks() {
							t.Fatalf("round %d, fault at access %d: Restore made %d accesses over %d blocks", round, k, len(events), f.NumBlocks())
						}
						for j, ev := range events {
							if op := []trace.Op{trace.Read, trace.Write}[j%2]; ev.Op != op || int(ev.Index) != j/2 {
								t.Fatalf("round %d, fault at access %d: Restore event %d is %v", round, k, j, ev)
							}
						}
					}
					if prints[0] != prints[1] {
						t.Fatalf("round %d, fault at access %d: cut pass and Restore trace depends on the data", round, k)
					}
				}
				// Land the batch on both tables, so later rounds start
				// from states it shaped.
				for _, f := range []*Flat{a, b} {
					if _, err := f.ApplyBatch(muts); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
