package storage

import (
	"fmt"
	"math/rand/v2"
	"testing"

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
				if err := batched.InsertFast(rw); err != nil {
					t.Fatal(err)
				}
				if err := single.InsertFast(rw); err != nil {
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
		if err := f.InsertFast(row(base+i, "x")); err != nil {
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
