package exec

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func execSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
		table.Column{Name: "tag", Kind: table.KindString, Width: 8},
	)
}

// buildFlat creates a flat table whose row i has id=i, val=vals[i].
func buildFlat(t *testing.T, e *enclave.Enclave, name string, vals []int64) *storage.Flat {
	t.Helper()
	f, err := storage.NewFlat(e, name, execSchema(), max(1, len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		r := table.Row{table.Int(int64(i)), table.Int(v), table.Str(fmt.Sprintf("t%d", v))}
		if err := f.InsertFast(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// ids returns the sorted id column of a table's used rows.
func ids(t *testing.T, f *storage.Flat) []int64 {
	t.Helper()
	rows, err := f.Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].AsInt()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var allSelectAlgs = []SelectAlgorithm{SelectNaive, SelectSmall, SelectLarge, SelectContinuous, SelectHash}

func TestSelectAllAlgorithmsCorrect(t *testing.T) {
	// vals: rows 10..29 have val=1 (a contiguous run for Continuous).
	vals := make([]int64, 50)
	for i := 10; i < 30; i++ {
		vals[i] = 1
	}
	pred := func(r table.Row) bool { return r[1].AsInt() == 1 }
	want := make([]int64, 0, 20)
	for i := int64(10); i < 30; i++ {
		want = append(want, i)
	}
	for _, alg := range allSelectAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			e := enclave.MustNew(enclave.Config{})
			in := buildFlat(t, e, "in", vals)
			out, err := Select(e, FromFlat(in), pred, alg, SelectOptions{OutSize: 20}, "out")
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(t, out); !eqInt64s(got, want) {
				t.Fatalf("%s returned %v, want %v", alg, got, want)
			}
			if out.NumRows() != 20 {
				t.Fatalf("%s NumRows = %d, want 20", alg, out.NumRows())
			}
		})
	}
}

func TestSelectScattered(t *testing.T) {
	// Non-contiguous matches for the algorithms that support them.
	rng := rand.New(rand.NewPCG(7, 7))
	vals := make([]int64, 64)
	var want []int64
	for i := range vals {
		if rng.IntN(3) == 0 {
			vals[i] = 1
			want = append(want, int64(i))
		}
	}
	pred := func(r table.Row) bool { return r[1].AsInt() == 1 }
	for _, alg := range []SelectAlgorithm{SelectNaive, SelectSmall, SelectLarge, SelectHash} {
		t.Run(alg.String(), func(t *testing.T) {
			e := enclave.MustNew(enclave.Config{})
			in := buildFlat(t, e, "in", vals)
			out, err := Select(e, FromFlat(in), pred, alg, SelectOptions{OutSize: len(want)}, "out")
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(t, out); !eqInt64s(got, want) {
				t.Fatalf("%s returned %v, want %v", alg, got, want)
			}
		})
	}
}

func TestSelectEmptyResult(t *testing.T) {
	for _, alg := range allSelectAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			e := enclave.MustNew(enclave.Config{})
			in := buildFlat(t, e, "in", make([]int64, 10))
			out, err := Select(e, FromFlat(in), table.None, alg, SelectOptions{OutSize: 0}, "out")
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(t, out); len(got) != 0 {
				t.Fatalf("%s returned %v for empty result", alg, got)
			}
		})
	}
}

func TestSelectSmallMultiplePasses(t *testing.T) {
	// Starve the enclave so the buffer holds ~2 rows, forcing many passes.
	e := enclave.MustNew(enclave.Config{ObliviousMemory: 2 * execSchema().RecordSize()})
	vals := make([]int64, 40)
	var want []int64
	for i := 0; i < 40; i += 2 {
		vals[i] = 1
		want = append(want, int64(i))
	}
	in := buildFlat(t, e, "in", vals)
	tr := trace.New()
	// Count passes via a fresh traced enclave clone of the data.
	_ = tr
	out, err := Select(e, FromFlat(in), func(r table.Row) bool { return r[1].AsInt() == 1 },
		SelectSmall, SelectOptions{OutSize: 20}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(t, out); !eqInt64s(got, want) {
		t.Fatalf("small select with starved memory wrong: %v", got)
	}
}

// TestSelectWithTransform pins Select's output shape now that it has no
// row transform: Hash writes the matching rows unchanged, on the input
// schema, into its padded output of five slots per result position.
func TestSelectWithTransform(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	vals := make([]int64, 20)
	for i := 5; i < 10; i++ {
		vals[i] = 1
	}
	in := buildFlat(t, e, "in", vals)
	out, err := Select(e, FromFlat(in), func(r table.Row) bool { return r[1].AsInt() == 1 },
		SelectHash, SelectOptions{OutSize: 5}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema() != in.Schema() {
		t.Fatal("hash select changed the row schema")
	}
	if out.Capacity() != 5*hashSlotsPerPosition || out.NumRows() != 5 {
		t.Fatalf("hash output holds %d rows in %d slots, want 5 in %d", out.NumRows(), out.Capacity(), 5*hashSlotsPerPosition)
	}
	if got := ids(t, out); !eqInt64s(got, []int64{5, 6, 7, 8, 9}) {
		t.Fatalf("hash select kept ids %v, want 5..9", got)
	}
}

// TestSelectTraceObliviousness is the central §4.1 property: with |T| and
// |R| fixed, the trace must be identical whatever the data and predicate.
// The Naive baseline goes through an ORAM, whose paths are randomized;
// there the guarantee is distributional, so the test checks access counts
// instead of exact traces (ORAM indistinguishability is tested in the oram
// package).
func TestSelectTraceObliviousness(t *testing.T) {
	run := func(alg SelectAlgorithm, vals []int64, predVal int64, outSize int) *trace.Tracer {
		tr := trace.New()
		tr.EnableCounts()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		in := buildFlat(t, e, "in", vals)
		tr.Reset()
		_, err := Select(e, FromFlat(in), func(r table.Row) bool { return r[1].AsInt() == predVal },
			alg, SelectOptions{OutSize: outSize}, "out")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	const n, k = 40, 10
	// Dataset A: rows 0..9 match value 1. Dataset B: rows 30..39 match 2.
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i] = 1
		valsB[n-1-i] = 2
	}
	for _, alg := range allSelectAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			a := run(alg, valsA, 1, k)
			b := run(alg, valsB, 2, k)
			if alg == SelectNaive {
				if a.TotalCount() != b.TotalCount() {
					t.Fatalf("Naive access count depends on data: %d vs %d", a.TotalCount(), b.TotalCount())
				}
				return
			}
			if d := trace.Diff(a, b); d != "" {
				t.Fatalf("%s trace depends on data/query: %s", alg, d)
			}
			if a.Len() == 0 {
				t.Fatal("empty trace; tracer not wired through")
			}
		})
	}
}

// TestSelectTraceScatteredVsContiguous checks the data-independence for
// the general algorithms with differently-shaped match sets.
func TestSelectTraceScatteredVsContiguous(t *testing.T) {
	const n, k = 32, 8
	valsScattered := make([]int64, n)
	for i := 0; i < n; i += 4 {
		valsScattered[i] = 1
	}
	valsRun := make([]int64, n)
	for i := 0; i < k; i++ {
		valsRun[i+5] = 1
	}
	pred := func(r table.Row) bool { return r[1].AsInt() == 1 }
	for _, alg := range []SelectAlgorithm{SelectSmall, SelectLarge, SelectHash} {
		t.Run(alg.String(), func(t *testing.T) {
			var traces []*trace.Tracer
			for _, vals := range [][]int64{valsScattered, valsRun} {
				tr := trace.New()
				e := enclave.MustNew(enclave.Config{Tracer: tr})
				in := buildFlat(t, e, "in", vals)
				tr.Reset()
				if _, err := Select(e, FromFlat(in), pred, alg, SelectOptions{OutSize: k}, "out"); err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
			if d := trace.Diff(traces[0], traces[1]); d != "" {
				t.Fatalf("%s distinguishes scattered from contiguous: %s", alg, d)
			}
		})
	}
}

func TestSelectNaiveChargesORAMMap(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", make([]int64, 8))
	free := e.Available()
	if _, err := Select(e, FromFlat(in), table.None, SelectNaive, SelectOptions{OutSize: 0}, "out"); err != nil {
		t.Fatal(err)
	}
	if e.Available() != free {
		t.Fatal("naive select leaked an oblivious-memory reservation")
	}
}

func TestSelectRejectsNegativeOutSize(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", make([]int64, 4))
	if _, err := Select(e, FromFlat(in), table.All, SelectHash, SelectOptions{OutSize: -1}, "out"); err == nil {
		t.Fatal("negative OutSize accepted")
	}
}

func TestHashSelectFullTable(t *testing.T) {
	// Selecting every row stresses hash placement at load factor 1/5.
	e := enclave.MustNew(enclave.Config{})
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 1
	}
	in := buildFlat(t, e, "in", vals)
	out, err := Select(e, FromFlat(in), table.All, SelectHash, SelectOptions{OutSize: 100}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids(t, out)) != 100 {
		t.Fatal("hash select dropped rows")
	}
}
