package exec

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// splitWorkers builds a parent enclave and p untraced workers.
func splitWorkers(t *testing.T, p int) (*enclave.Enclave, []*enclave.Enclave) {
	t.Helper()
	e := enclave.MustNew(enclave.Config{})
	ws, err := e.Split(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, ws
}

var parallelSelectAlgs = []SelectAlgorithm{SelectNaive, SelectSmall, SelectLarge, SelectHash}

func TestParallelSelectMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	vals := make([]int64, 100)
	outSize := 0
	for i := range vals {
		if rng.IntN(4) == 0 {
			vals[i] = 1
			outSize++
		}
	}
	pred := func(r table.Row) bool { return r[1].AsInt() == 1 }
	for _, alg := range parallelSelectAlgs {
		for _, p := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", alg, p), func(t *testing.T) {
				se := enclave.MustNew(enclave.Config{})
				sin := buildFlat(t, se, "in", vals)
				want, err := Select(se, FromFlat(sin), pred, alg, SelectOptions{OutSize: outSize}, "out")
				if err != nil {
					t.Fatal(err)
				}

				e, ws := splitWorkers(t, p)
				in := buildFlat(t, e, "in", vals)
				got, err := ParallelSelect(e, ws, in, pred, alg, SelectOptions{OutSize: outSize}, "out")
				if err != nil {
					t.Fatal(err)
				}
				if !eqInt64s(ids(t, got), ids(t, want)) {
					t.Fatalf("parallel %s at P=%d returned %v, want %v", alg, p, ids(t, got), ids(t, want))
				}
				if got.NumRows() != outSize {
					t.Fatalf("NumRows = %d, want %d", got.NumRows(), outSize)
				}
			})
		}
	}
}

func TestParallelSelectEmptyResult(t *testing.T) {
	for _, alg := range parallelSelectAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			e, ws := splitWorkers(t, 4)
			in := buildFlat(t, e, "in", make([]int64, 40))
			out, err := ParallelSelect(e, ws, in, func(table.Row) bool { return false }, alg, SelectOptions{OutSize: 0}, "out")
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() != 0 {
				t.Fatalf("empty select returned %d rows", out.NumRows())
			}
		})
	}
}

func TestParallelSelectContinuousRejected(t *testing.T) {
	e, ws := splitWorkers(t, 2)
	in := buildFlat(t, e, "in", []int64{1, 1, 0, 0})
	if _, err := ParallelSelect(e, ws, in, table.All, SelectContinuous, SelectOptions{OutSize: 2}, "out"); err == nil {
		t.Fatal("parallel Continuous should be rejected")
	}
}

func TestParallelSmallSelectFallsBackWhenMemoryTight(t *testing.T) {
	e := enclave.MustNew(enclave.Config{ObliviousMemory: 1})
	ws, err := e.Split(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := buildFlat(t, e, "in", []int64{1, 1, 1, 1, 0, 0, 0, 0})
	pred := func(r table.Row) bool { return r[1].AsInt() == 1 }
	_, err = ParallelSelect(e, ws, in, pred, SelectSmall, SelectOptions{OutSize: 4}, "out")
	if !errors.Is(err, ErrSerialFallback) {
		t.Fatalf("want ErrSerialFallback with zero worker memory, got %v", err)
	}
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 2))
	vals := make([]int64, 97) // deliberately not a multiple of P
	for i := range vals {
		vals[i] = int64(rng.IntN(50) - 25)
	}
	pred := func(r table.Row) bool { return r[1].AsInt()%2 == 0 }
	specs := []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1},
		{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
	}
	se := enclave.MustNew(enclave.Config{})
	want, err := Aggregate(FromFlat(buildFlat(t, se, "in", vals)), pred, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		e, ws := splitWorkers(t, p)
		got, err := ParallelAggregate(ws, buildFlat(t, e, "in", vals), pred, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("P=%d: aggregate %d = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestParallelGroupAggregateMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 3))
	vals := make([]int64, 90)
	for i := range vals {
		vals[i] = int64(rng.IntN(7))
	}
	groupBy := func(r table.Row) table.Value { return r[1] }
	specs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 0}}

	se := enclave.MustNew(enclave.Config{})
	want, err := GroupAggregate(se, FromFlat(buildFlat(t, se, "in", vals)), table.All, groupBy, specs, GroupAggregateOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := want.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		e, ws := splitWorkers(t, p)
		got, err := ParallelGroupAggregate(e, ws, buildFlat(t, e, "in", vals), table.All, groupBy, specs, GroupAggregateOptions{}, "out")
		if err != nil {
			t.Fatal(err)
		}
		gotRows, err := got.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("P=%d: %d groups, want %d", p, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			for j := range wantRows[i] {
				if !gotRows[i][j].Equal(wantRows[i][j]) {
					t.Fatalf("P=%d: group row %d col %d = %v, want %v", p, i, j, gotRows[i][j], wantRows[i][j])
				}
			}
		}
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	ls := table.MustSchema(table.Column{Name: "pk", Kind: table.KindInt}, table.Column{Name: "name", Kind: table.KindString, Width: 8})
	rs := table.MustSchema(table.Column{Name: "fk", Kind: table.KindInt}, table.Column{Name: "x", Kind: table.KindInt})
	mkTables := func(t *testing.T, e *enclave.Enclave) (lf, rf *storage.Flat) {
		lf = newFilled(t, e, "l", ls, 12, func(i int) table.Row {
			return table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("n%d", i))}
		})
		rf = newFilled(t, e, "r", rs, 40, func(i int) table.Row {
			return table.Row{table.Int(int64(i % 15)), table.Int(int64(i))}
		})
		return lf, rf
	}
	outSchema, err := JoinedSchema(ls, rs)
	if err != nil {
		t.Fatal(err)
	}
	e1 := enclave.MustNew(enclave.Config{})
	lf, rf := mkTables(t, e1)
	want, err := Join(e1, FromFlat(lf), FromFlat(rf), 0, 0, JoinHash, JoinOptions{OutSchema: outSchema}, "out")
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := joinedKeys(t, want)

	for _, p := range []int{1, 2, 4} {
		e, ws := splitWorkers(t, p)
		lf, rf := mkTables(t, e)
		got, err := ParallelHashJoin(e, ws, lf, rf, 0, 0, outSchema, "out")
		if err != nil {
			t.Fatal(err)
		}
		if gotKeys := joinedKeys(t, got); !eqInt64s(gotKeys, wantKeys) {
			t.Fatalf("P=%d: joined rows %v, want %v", p, gotKeys, wantKeys)
		}
	}
}

// --- parallel obliviousness: per-worker canonical trace multisets ---------

// tracedWorkers builds a traced parent and p traced workers with a fixed
// key, so two runs are fully comparable.
func tracedWorkers(t *testing.T, p int) (*enclave.Enclave, []*enclave.Enclave, *trace.Tracer, []*trace.Tracer) {
	t.Helper()
	parent := trace.New()
	wts := make([]*trace.Tracer, p)
	for i := range wts {
		wts[i] = trace.New()
	}
	e, err := enclave.New(enclave.Config{Tracer: parent, Key: make([]byte, 32)})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := e.Split(p, wts)
	if err != nil {
		t.Fatal(err)
	}
	return e, ws, parent, wts
}

// fingerprints reduces one parallel run to (parent canonical, worker
// multiset) fingerprints.
type fingerprints struct {
	parent  [32]byte
	workers [32]byte
}

func runTracedSelect(t *testing.T, alg SelectAlgorithm, p int, vals []int64, param int64, outSize int) fingerprints {
	t.Helper()
	e, ws, parent, wts := tracedWorkers(t, p)
	in := buildFlat(t, e, "in", vals)
	parent.Reset()
	for _, w := range wts {
		w.Reset()
	}
	pred := func(r table.Row) bool { return r[1].AsInt() == param }
	if _, err := ParallelSelect(e, ws, in, pred, alg, SelectOptions{OutSize: outSize}, "out"); err != nil {
		t.Fatal(err)
	}
	return fingerprints{parent: parent.CanonicalFingerprint(), workers: trace.MultisetFingerprint(wts)}
}

func TestParallelSelectOblivious(t *testing.T) {
	// Same |T|, same |R|, adversarially different data and predicate
	// parameters: the parent trace and the multiset of per-worker traces
	// must both be identical. Naive is excluded here — its ORAM paths are
	// randomized (indistinguishable by distribution, not equality) — and
	// covered by the count-uniformity test below, matching the ORAM
	// convention in core's trace tests.
	const n, k = 96, 13
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i*7] = 3           // scattered early
		valsB[n-1-i*2] = 1000000 // clustered late, huge values
	}
	for _, alg := range []SelectAlgorithm{SelectSmall, SelectLarge, SelectHash} {
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", alg, p), func(t *testing.T) {
				a := runTracedSelect(t, alg, p, valsA, 3, k)
				b := runTracedSelect(t, alg, p, valsB, 1000000, k)
				if a.parent != b.parent {
					t.Fatal("parallel select: parent combine trace depends on data")
				}
				if a.workers != b.workers {
					t.Fatal("parallel select: worker trace multiset depends on data")
				}
			})
		}
	}
}

func TestParallelNaiveSelectAccessCountsUniform(t *testing.T) {
	// Naive's per-partition ORAM paths are randomized, so the guarantee
	// is count-uniformity: every worker performs the same number of
	// untrusted accesses whatever the data, and the parent combine trace
	// is exactly equal.
	const n, k = 96, 13
	run := func(vals []int64, param int64) ([]int, [32]byte) {
		e, ws, parent, wts := tracedWorkers(t, 4)
		in := buildFlat(t, e, "in", vals)
		parent.Reset()
		for _, w := range wts {
			w.Reset()
		}
		pred := func(r table.Row) bool { return r[1].AsInt() == param }
		if _, err := ParallelSelect(e, ws, in, pred, SelectNaive, SelectOptions{OutSize: k}, "out"); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(wts))
		for i, w := range wts {
			counts[i] = w.Len()
		}
		sort.Ints(counts)
		return counts, parent.CanonicalFingerprint()
	}
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i*7] = 3
		valsB[n-1-i*2] = 1000000
	}
	ca, pa := run(valsA, 3)
	cb, pb := run(valsB, 1000000)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("worker access counts differ: %v vs %v", ca, cb)
		}
	}
	if pa != pb {
		t.Fatal("parallel naive select: parent combine trace depends on data")
	}
}

func TestParallelAggregateOblivious(t *testing.T) {
	run := func(vals []int64, threshold int64) fingerprints {
		e, ws, parent, wts := tracedWorkers(t, 4)
		in := buildFlat(t, e, "in", vals)
		parent.Reset()
		for _, w := range wts {
			w.Reset()
		}
		pred := func(r table.Row) bool { return r[1].AsInt() > threshold }
		if _, err := ParallelAggregate(ws, in, pred, []AggSpec{{Kind: AggSum, Col: 1}}); err != nil {
			t.Fatal(err)
		}
		return fingerprints{parent: parent.CanonicalFingerprint(), workers: trace.MultisetFingerprint(wts)}
	}
	a := run([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 6)
	b := run([]int64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 0)
	if a.parent != b.parent || a.workers != b.workers {
		t.Fatal("parallel aggregate trace depends on data")
	}
}

func TestParallelGroupAggregateOblivious(t *testing.T) {
	// Same group COUNT (the conceded leakage), different memberships.
	run := func(vals []int64) fingerprints {
		e, ws, parent, wts := tracedWorkers(t, 4)
		in := buildFlat(t, e, "in", vals)
		parent.Reset()
		for _, w := range wts {
			w.Reset()
		}
		groupBy := func(r table.Row) table.Value { return r[1] }
		if _, err := ParallelGroupAggregate(e, ws, in, table.All, groupBy, []AggSpec{{Kind: AggCount}}, GroupAggregateOptions{}, "out"); err != nil {
			t.Fatal(err)
		}
		return fingerprints{parent: parent.CanonicalFingerprint(), workers: trace.MultisetFingerprint(wts)}
	}
	a := run([]int64{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}) // balanced groups
	b := run([]int64{5, 6, 7, 5, 5, 5, 5, 5, 5, 5, 5, 5}) // skewed groups
	if a.parent != b.parent || a.workers != b.workers {
		t.Fatal("parallel group aggregate trace depends on group membership")
	}
}

func TestParallelHashJoinOblivious(t *testing.T) {
	run := func(fkBase int64) fingerprints {
		e, ws, parent, wts := tracedWorkers(t, 4)
		ls := table.MustSchema(table.Column{Name: "pk", Kind: table.KindInt})
		rs := table.MustSchema(table.Column{Name: "fk", Kind: table.KindInt})
		lf := newFilled(t, e, "l", ls, 8, func(i int) table.Row { return table.Row{table.Int(int64(i))} })
		rf := newFilled(t, e, "r", rs, 32, func(i int) table.Row { return table.Row{table.Int(fkBase + int64(i%4))} })
		outSchema, err := JoinedSchema(ls, rs)
		if err != nil {
			t.Fatal(err)
		}
		parent.Reset()
		for _, w := range wts {
			w.Reset()
		}
		if _, err := ParallelHashJoin(e, ws, lf, rf, 0, 0, outSchema, "out"); err != nil {
			t.Fatal(err)
		}
		return fingerprints{parent: parent.CanonicalFingerprint(), workers: trace.MultisetFingerprint(wts)}
	}
	a := run(0)    // every probe row matches
	b := run(1000) // none match
	if a.parent != b.parent || a.workers != b.workers {
		t.Fatal("parallel hash join trace depends on match pattern")
	}
}

// --- helpers --------------------------------------------------------------

// newFilled creates a flat table of n rows produced by gen.
func newFilled(t *testing.T, e *enclave.Enclave, name string, s *table.Schema, n int, gen func(i int) table.Row) *storage.Flat {
	t.Helper()
	f, err := storage.NewFlat(e, name, s, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := f.InsertFast(gen(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// joinedKeys returns the sorted last column of used joined rows.
func joinedKeys(t *testing.T, f *storage.Flat) []int64 {
	t.Helper()
	rows, err := f.Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[len(r)-1].AsInt()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
