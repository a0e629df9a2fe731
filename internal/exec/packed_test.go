package exec

import (
	"fmt"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// Operator-level tests at packed geometry (R > 1): every oblivious
// operator must produce correct results over packed inputs and keep its
// trace a function of the public pair (capacity, R) alone.

func packedInput(t *testing.T, e *enclave.Enclave, name string, vals []int64, r int) *storage.Flat {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
	)
	f, err := storage.NewFlatGeom(e, name, s, len(vals), r)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if err := f.InsertFast(table.Row{table.Int(int64(i)), table.Int(v)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestPackedSelectAllAlgorithmsCorrect(t *testing.T) {
	vals := make([]int64, 40)
	want := 0
	for i := range vals {
		vals[i] = int64(i % 7)
		if vals[i] >= 4 {
			want++
		}
	}
	pred := func(r table.Row) bool { return r[1].AsInt() >= 4 }
	for _, r := range []int{1, 3, 4, 16} {
		for _, alg := range []SelectAlgorithm{SelectNaive, SelectSmall, SelectLarge, SelectHash} {
			t.Run(fmt.Sprintf("R=%d/%s", r, alg), func(t *testing.T) {
				e := enclave.MustNew(enclave.Config{})
				f := packedInput(t, e, "in", vals, r)
				out, err := Select(e, FromFlat(f), pred, alg, SelectOptions{OutSize: want}, "out")
				if err != nil {
					t.Fatal(err)
				}
				rows, err := out.Rows()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != want {
					t.Fatalf("R=%d %s: %d rows, want %d", r, alg, len(rows), want)
				}
				if out.RowsPerBlock() != r {
					t.Fatalf("R=%d %s: output geometry %d, want inherited %d", r, alg, out.RowsPerBlock(), r)
				}
			})
		}
	}
}

func TestPackedSelectContinuous(t *testing.T) {
	vals := make([]int64, 24)
	for i := 8; i < 16; i++ {
		vals[i] = 1
	}
	for _, r := range []int{1, 4} {
		e := enclave.MustNew(enclave.Config{})
		f := packedInput(t, e, "in", vals, r)
		out, err := Select(e, FromFlat(f),
			func(rw table.Row) bool { return rw[1].AsInt() == 1 },
			SelectContinuous, SelectOptions{OutSize: 8}, "out")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := out.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 {
			t.Fatalf("R=%d: continuous returned %d rows, want 8", r, len(rows))
		}
	}
}

func TestPackedJoinAndAggregate(t *testing.T) {
	for _, r := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			e := enclave.MustNew(enclave.Config{})
			pk := packedInput(t, e, "pk", []int64{10, 20, 30, 40, 50, 60, 70, 80}, r)
			fkVals := make([]int64, 20)
			matches := 0
			for i := range fkVals {
				fkVals[i] = int64(i % 10)
				if fkVals[i] < 8 {
					matches++
				}
			}
			fk := packedInput(t, e, "fk", fkVals, r)
			// Join pk.id (0..7, unique) with fk.val (i mod 10).
			for _, alg := range []JoinAlgorithm{JoinHash, JoinOpaque, JoinZeroOM} {
				out, err := Join(e, FromFlat(pk), FromFlat(fk), 0, 1, alg, JoinOptions{}, fmt.Sprintf("j.%s", alg))
				if err != nil {
					t.Fatal(err)
				}
				if out.NumRows() != matches {
					t.Fatalf("R=%d %s: %d joined rows, want %d", r, alg, out.NumRows(), matches)
				}
			}
			vals, err := Aggregate(FromFlat(fk), table.All, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if vals[0].AsInt() != 20 {
				t.Fatalf("R=%d: COUNT = %v", r, vals[0])
			}
			g, err := GroupAggregate(e, FromFlat(fk), table.All,
				func(rw table.Row) table.Value { return table.Int(rw[1].AsInt() % 2) },
				[]AggSpec{{Kind: AggCount}}, GroupAggregateOptions{}, "g")
			if err != nil {
				t.Fatal(err)
			}
			if g.NumRows() != 2 {
				t.Fatalf("R=%d: %d groups, want 2", r, g.NumRows())
			}
		})
	}
}

func TestPackedOrderByLimit(t *testing.T) {
	for _, r := range []int{1, 4, 16} {
		e := enclave.MustNew(enclave.Config{})
		f := packedInput(t, e, "in", []int64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}, r)
		sorted, err := OrderBy(e, FromFlat(f), table.All, 1, false, "s")
		if err != nil {
			t.Fatal(err)
		}
		lim, err := Limit(e, FromFlat(sorted), 3, "l")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := lim.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("R=%d: LIMIT produced %d rows, want 3", r, len(rows))
		}
		for i, want := range []int64{0, 1, 2} {
			if rows[i][1].AsInt() != want {
				t.Fatalf("R=%d: sorted row %d = %v, want val %d", r, i, rows[i], want)
			}
		}
	}
}

// TestPackedSelfJoinChunked is the regression test for the hash join's
// row-reader cache over a self-join: both inputs are the SAME Flat, so
// the probe pass clobbers the scratch the build reader's cached rows
// alias. With the cache invalidated at chunk boundaries the join must
// still be exact — including string payloads, which are the values that
// aliasing corrupts.
func TestPackedSelfJoinChunked(t *testing.T) {
	for _, r := range []int{1, 4} {
		// Oblivious memory sized so chunkRows < rows: multiple build
		// chunks, each followed by a full probe pass over the same table.
		e := enclave.MustNew(enclave.Config{ObliviousMemory: 1024})
		s := table.MustSchema(
			table.Column{Name: "id", Kind: table.KindInt},
			table.Column{Name: "name", Kind: table.KindString, Width: 16},
		)
		f, err := storage.NewFlatGeom(e, "t", s, 100, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i++ {
			if err := f.InsertFast(table.Row{table.Int(i), table.Str(fmt.Sprintf("name-%02d", i))}, nil); err != nil {
				t.Fatal(err)
			}
		}
		out, err := Join(e, FromFlat(f), FromFlat(f), 0, 0, JoinHash, JoinOptions{}, "self")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := out.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 100 {
			t.Fatalf("R=%d: self-join produced %d rows, want 100", r, len(rows))
		}
		for _, rw := range rows {
			id := rw[0].AsInt()
			want := fmt.Sprintf("name-%02d", id)
			if rw[1].AsString() != want || rw[3].AsString() != want || rw[2].AsInt() != id {
				t.Fatalf("R=%d: self-join row corrupted: %v", r, rw)
			}
		}
	}
}

// packedOpTrace runs select + sort over seed-derived data at geometry r
// and returns the trace; public parameters (capacity, R, |R|, algorithm)
// are fixed across seeds.
func packedOpTrace(t *testing.T, r int, seed int64, alg SelectAlgorithm) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	e := enclave.MustNew(enclave.Config{Tracer: tr, Key: make([]byte, 32)})
	vals := make([]int64, 32)
	for i := range vals {
		if int64(i)%4 == seed%4 {
			vals[i] = 1
		}
	}
	f := packedInput(t, e, "in", vals, r)
	tr.Reset()
	if _, err := Select(e, FromFlat(f),
		func(rw table.Row) bool { return rw[1].AsInt() == 1 }, alg,
		SelectOptions{OutSize: 8}, "out"); err != nil {
		t.Fatal(err)
	}
	if _, err := OrderBy(e, FromFlat(f),
		func(rw table.Row) bool { return rw[1].AsInt() == 1 }, 0, false, "sorted"); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPackedOperatorTracesOblivious(t *testing.T) {
	// For each (R, algorithm): same public sizes, different data →
	// byte-identical traces. Across R the traces differ, because R is
	// part of the public geometry.
	for _, alg := range []SelectAlgorithm{SelectSmall, SelectLarge, SelectHash} {
		var prints [][32]byte
		rs := []int{1, 4, 16}
		for _, r := range rs {
			t.Run(fmt.Sprintf("%s/R=%d", alg, r), func(t *testing.T) {
				a := packedOpTrace(t, r, 1, alg)
				b := packedOpTrace(t, r, 3, alg)
				if d := trace.Diff(a, b); d != "" {
					t.Fatalf("%s at R=%d: trace depends on data: %s", alg, r, d)
				}
				prints = append(prints, a.Fingerprint())
			})
		}
		for i := 1; i < len(prints); i++ {
			if prints[i] == prints[0] {
				t.Fatalf("%s: R=%d and R=%d produced identical traces", alg, rs[0], rs[i])
			}
		}
	}
}

func TestPackedParallelSelectMatchesSerial(t *testing.T) {
	// Partition boundaries align to blocks: parallel results at R > 1
	// match the serial operator's row multiset.
	for _, r := range []int{1, 4} {
		e := enclave.MustNew(enclave.Config{})
		vals := make([]int64, 200)
		want := 0
		for i := range vals {
			vals[i] = int64(i % 5)
			if vals[i] == 2 {
				want++
			}
		}
		f := packedInput(t, e, "in", vals, r)
		workers, err := e.Split(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		pred := func(rw table.Row) bool { return rw[1].AsInt() == 2 }
		for _, alg := range []SelectAlgorithm{SelectSmall, SelectLarge, SelectHash} {
			out, err := ParallelSelect(e, workers, f, pred, alg, SelectOptions{OutSize: want}, fmt.Sprintf("p.%s", alg))
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() != want {
				t.Fatalf("R=%d %s: parallel select %d rows, want %d", r, alg, out.NumRows(), want)
			}
		}
	}
}
