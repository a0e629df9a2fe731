package indexed

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/oram"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func tblSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 20},
	)
}

func newTable(t *testing.T, maxRows int, opts Options, tr *trace.Tracer) *Table {
	t.Helper()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	tbl, err := New(e, "t", tblSchema(), 0, maxRows, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl
}

func trow(k int64) table.Row {
	return table.Row{table.Int(k), table.Str(fmt.Sprintf("p%d", k))}
}

func TestNewValidation(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	s := tblSchema()
	if _, err := New(e, "i", s, 5, 10, Options{}); err == nil {
		t.Error("out-of-range key column accepted")
	}
	if _, err := New(e, "i", s, 1, 10, Options{}); err == nil {
		t.Error("string key column accepted")
	}
	if _, err := New(e, "i", s, 0, 0, Options{}); err == nil {
		t.Error("zero maxRows accepted")
	}
	if _, err := New(e, "i", s, 0, 10, Options{RowsPerBlock: -1}); err == nil {
		t.Error("negative rows per block accepted")
	}
}

func TestInsertLookupAcrossPackings(t *testing.T) {
	for _, r := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tbl := newTable(t, 64, Options{RowsPerBlock: r}, nil)
			if _, ok, err := tbl.Lookup(1); err != nil || ok {
				t.Fatalf("lookup in empty table: ok=%v err=%v", ok, err)
			}
			for i := int64(0); i < 40; i++ {
				if err := tbl.Insert(trow(i * 2)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if tbl.NumRows() != 40 {
				t.Fatalf("NumRows = %d, want 40", tbl.NumRows())
			}
			for i := int64(0); i < 40; i++ {
				row, ok, err := tbl.Lookup(i * 2)
				if err != nil || !ok {
					t.Fatalf("lookup %d: ok=%v err=%v", i*2, ok, err)
				}
				if row[0].AsInt() != i*2 {
					t.Fatalf("lookup %d returned key %d", i*2, row[0].AsInt())
				}
			}
			for _, miss := range []int64{-1, 1, 79, 100} {
				if _, ok, err := tbl.Lookup(miss); err != nil || ok {
					t.Fatalf("lookup miss %d: ok=%v err=%v", miss, ok, err)
				}
			}
		})
	}
}

func TestLookupInto(t *testing.T) {
	tbl := newTable(t, 64, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 30; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make(table.Row, 2)
	for i := int64(0); i < 30; i++ {
		ok, err := tbl.LookupInto(i, dst)
		if err != nil || !ok {
			t.Fatalf("LookupInto(%d): ok=%v err=%v", i, ok, err)
		}
		if dst[0].AsInt() != i || dst[1].AsString() != fmt.Sprintf("p%d", i) {
			t.Fatalf("LookupInto(%d) = %v", i, dst)
		}
	}
	if ok, err := tbl.LookupInto(99, dst); err != nil || ok {
		t.Fatalf("LookupInto miss: ok=%v err=%v", ok, err)
	}
	if _, err := tbl.LookupInto(1, make(table.Row, 3)); err == nil {
		t.Fatal("wrong-width destination accepted")
	}
}

// TestModel runs a random op mix against a map model, exercising splits,
// merges, duplicates, and slot reuse at a small packing factor.
func TestModel(t *testing.T) {
	tbl := newTable(t, 220, Options{RowsPerBlock: 3}, nil)
	rng := rand.New(rand.NewPCG(42, 42))
	counts := map[int64]int{}
	live := 0
	for op := 0; op < 1500; op++ {
		k := int64(rng.IntN(60))
		switch {
		case rng.IntN(3) != 0 && live < 200:
			if err := tbl.Insert(trow(k)); err != nil {
				t.Fatalf("op %d insert(%d): %v", op, k, err)
			}
			counts[k]++
			live++
		case rng.IntN(2) == 0:
			ok, err := tbl.Delete(k)
			if err != nil {
				t.Fatalf("op %d delete(%d): %v", op, k, err)
			}
			if ok != (counts[k] > 0) {
				t.Fatalf("op %d delete(%d) = %v, model has %d", op, k, ok, counts[k])
			}
			if ok {
				counts[k]--
				live--
			}
		default:
			row, ok, err := tbl.Lookup(k)
			if err != nil {
				t.Fatalf("op %d lookup(%d): %v", op, k, err)
			}
			if ok != (counts[k] > 0) {
				t.Fatalf("op %d lookup(%d) = %v, model has %d", op, k, ok, counts[k])
			}
			if ok && row[0].AsInt() != k {
				t.Fatalf("op %d lookup(%d) returned key %d", op, k, row[0].AsInt())
			}
		}
		if tbl.NumRows() != live {
			t.Fatalf("op %d: NumRows = %d, model has %d", op, tbl.NumRows(), live)
		}
	}
	rows, err := tbl.Rows()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for _, r := range rows {
		got[r[0].AsInt()]++
	}
	for k, n := range counts {
		if got[k] != n {
			t.Fatalf("key %d: table has %d rows, model has %d", k, got[k], n)
		}
	}
}

func TestUpdateByKey(t *testing.T) {
	tbl := newTable(t, 64, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 20; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tbl.UpdateByKey(7, func(r table.Row) table.Row {
		r[1] = table.Str("updated")
		return r
	})
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	row, _, err := tbl.Lookup(7)
	if err != nil || row[1].AsString() != "updated" {
		t.Fatalf("after update: row=%v err=%v", row, err)
	}
	if _, err := tbl.UpdateByKey(7, func(r table.Row) table.Row {
		r[0] = table.Int(8)
		return r
	}); err == nil {
		t.Fatal("key change accepted")
	}
	if ok, err := tbl.UpdateByKey(99, func(r table.Row) table.Row { return r }); err != nil || ok {
		t.Fatalf("update miss: ok=%v err=%v", ok, err)
	}
}

func TestRangeScanOrdered(t *testing.T) {
	tbl := newTable(t, 128, Options{RowsPerBlock: 4}, nil)
	perm := rand.New(rand.NewPCG(9, 9)).Perm(100)
	for _, k := range perm {
		if err := tbl.Insert(trow(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	n, err := tbl.RangeScan(25, 74, func(_ uint32, r table.Row) error {
		got = append(got, r[0].AsInt())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || len(got) != 50 {
		t.Fatalf("range returned %d rows (count %d), want 50", len(got), n)
	}
	for i, k := range got {
		if k != int64(25+i) {
			t.Fatalf("position %d: key %d, want %d", i, k, 25+i)
		}
	}
}

func TestScanRawMatchesRangeScan(t *testing.T) {
	tbl := newTable(t, 128, Options{RowsPerBlock: 4}, nil)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 90; i++ {
		if err := tbl.Insert(trow(int64(rng.IntN(40)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := tbl.Delete(int64(rng.IntN(40))); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int64]int{}
	if _, err := tbl.RangeScan(minInt64, maxInt64, func(_ uint32, r table.Row) error {
		want[r[0].AsInt()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	if err := tbl.ScanRaw(func(_ uint32, r table.Row) error {
		got[r[0].AsInt()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ScanRaw saw %d keys, RangeScan %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d: ScanRaw %d, RangeScan %d", k, got[k], n)
		}
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	mk := func(bulk bool) []table.Row {
		tbl := newTable(t, 200, Options{RowsPerBlock: 4}, nil)
		rng := rand.New(rand.NewPCG(77, 77))
		var rows []table.Row
		for i := 0; i < 150; i++ {
			rows = append(rows, trow(int64(rng.IntN(500))))
		}
		if bulk {
			if err := tbl.BulkLoad(rows); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range rows {
				if err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		out, err := tbl.Rows()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(true), mk(false)
	if len(a) != len(b) {
		t.Fatalf("bulk %d rows, incremental %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0].AsInt() != b[i][0].AsInt() {
			t.Fatalf("row %d: bulk key %d, incremental %d", i, a[i][0].AsInt(), b[i][0].AsInt())
		}
	}
	// Bulk-loaded tables must keep absorbing mutations.
	tbl := newTable(t, 200, Options{RowsPerBlock: 4}, nil)
	var rows []table.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, trow(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	for i := int64(100); i < 140; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 30; i++ {
		if ok, err := tbl.Delete(i * 2); err != nil || !ok {
			t.Fatalf("delete %d after bulk: ok=%v err=%v", i*2, ok, err)
		}
	}
	if tbl.NumRows() != 110 {
		t.Fatalf("NumRows = %d, want 110", tbl.NumRows())
	}
}

// TestFixedAccessCounts is the §3.2 obliviousness property: every
// operation of a given type performs a fixed number of logical ORAM
// accesses determined only by the public tree height — splits, merges,
// hits, misses and duplicates are all invisible. (What one logical access
// costs in untrusted blocks is the ORAM's own property, pinned in
// internal/oram.)
func TestFixedAccessCounts(t *testing.T) {
	tbl := newTable(t, 300, Options{RowsPerBlock: 3}, nil)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 260; i++ {
		hPre := tbl.Height()
		if err := tbl.Insert(trow(int64(rng.IntN(100)))); err != nil {
			t.Fatal(err)
		}
		if want := insertTarget(hPre, tbl.Height()); tbl.ops != want {
			t.Fatalf("insert %d at heights %d→%d: %d accesses, want %d", i, hPre, tbl.Height(), tbl.ops, want)
		}
	}
	h := tbl.Height()
	dst := make(table.Row, 2)
	for _, k := range []int64{0, 50, 99, -5, 1000} {
		if _, _, err := tbl.Lookup(k); err != nil || tbl.ops != lookupTarget(h) {
			t.Fatalf("lookup(%d): %d accesses, want %d (err %v)", k, tbl.ops, lookupTarget(h), err)
		}
		if _, err := tbl.LookupInto(k, dst); err != nil || tbl.ops != lookupTarget(h) {
			t.Fatalf("LookupInto(%d): %d accesses, want %d (err %v)", k, tbl.ops, lookupTarget(h), err)
		}
		if _, err := tbl.UpdateByKey(k, func(r table.Row) table.Row { return r }); err != nil || tbl.ops != updateTarget(h) {
			t.Fatalf("update(%d): %d accesses, want %d (err %v)", k, tbl.ops, updateTarget(h), err)
		}
	}
	for i := 0; i < 50; i++ {
		hPre := tbl.Height()
		k := int64(rng.IntN(120)) // some misses
		if _, err := tbl.Delete(k); err != nil || tbl.ops != deleteTarget(hPre) {
			t.Fatalf("delete(%d) at height %d: %d accesses, want %d (err %v)", k, hPre, tbl.ops, deleteTarget(hPre), err)
		}
	}
}

func TestFullTable(t *testing.T) {
	tbl := newTable(t, 10, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(trow(10)); err == nil {
		t.Fatal("insert into full table accepted")
	}
	// Delete + insert reuses the freed slot.
	if _, err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(trow(99)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
}

// fixedKey pins the AES key so two enclaves seal identically-shaped state
// with the same randomness.
func fixedKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i*7 + 1)
	}
	return k
}

func tracedTable(t *testing.T, n int, keyOf func(int) int64, payload string) (*Table, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	tr.Enable()
	e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11, Tracer: tr})
	tbl, err := New(e, "t", tblSchema(), 0, n, Options{RowsPerBlock: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(keyOf(i)), table.Str(payload)}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tbl, tr
}

// TestSameShapeTracesIdentical pins the indexed path's obliviousness on
// satellite-1 seeding: two tables with the same public shape (row count,
// op sequence, lookup ranks) but different keys and payloads produce
// byte-identical untrusted access traces.
func TestSameShapeTracesIdentical(t *testing.T) {
	const n = 600
	a, trA := tracedTable(t, n, func(i int) int64 { return int64(2 * i) }, "aaaa")
	b, trB := tracedTable(t, n, func(i int) int64 { return int64(3*i + 1) }, "zz")

	if fa, fb := trA.Fingerprint(), trB.Fingerprint(); fa != fb {
		t.Fatalf("bulk-load traces differ for same-shape tables:\n%s", trace.Diff(trA, trB))
	}
	// Same-rank point lookups: the descent visits the same node ids, the
	// record access the same block, the ORAM the same (seeded) paths.
	for _, rank := range []int{0, 1, 57, 300, 599} {
		trA.Reset()
		trB.Reset()
		if _, ok, err := a.Lookup(int64(2 * rank)); err != nil || !ok {
			t.Fatalf("lookup rank %d in a: ok=%v err=%v", rank, ok, err)
		}
		if _, ok, err := b.Lookup(int64(3*rank + 1)); err != nil || !ok {
			t.Fatalf("lookup rank %d in b: ok=%v err=%v", rank, ok, err)
		}
		if fa, fb := trA.Fingerprint(), trB.Fingerprint(); fa != fb {
			t.Fatalf("lookup traces differ at rank %d:\n%s", rank, trace.Diff(trA, trB))
		}
	}
}

// TestLookupCostGrowsLogarithmically pins the indexed method's asymptotic
// advantage: the untrusted block accesses of one point lookup grow like
// (height+2)·AccessesPerOp — logarithmically in the table size — while a
// flat scan grows linearly.
func TestLookupCostGrowsLogarithmically(t *testing.T) {
	cost := func(n int) float64 {
		tr := trace.New()
		tr.EnableCounts()
		e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11, Tracer: tr})
		tbl, err := New(e, "t", tblSchema(), 0, n, Options{RowsPerBlock: 4, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{table.Int(int64(i)), table.Str("x")}
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		// Average over a multiple of the eviction rate so scheduled
		// evictions amortize identically at every size.
		const reps = 64
		before := tr.TotalCount()
		for i := 0; i < reps; i++ {
			if _, ok, err := tbl.Lookup(int64((i * 97) % n)); err != nil || !ok {
				t.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
		}
		return float64(tr.TotalCount()-before) / reps
	}

	sizes := []int{200, 3200, 12800}
	costs := make([]float64, len(sizes))
	for i, n := range sizes {
		costs[i] = cost(n)
		if costs[i] <= 0 {
			t.Fatalf("size %d: nonpositive lookup cost %v", n, costs[i])
		}
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1]*0.8 {
			t.Fatalf("lookup cost shrank with size: %v at %v", costs, sizes)
		}
	}
	// 64× more rows must cost far less than 64× more accesses — allow up
	// to 6×, generous for (h+2)·AccessesPerOp growth.
	if ratio := costs[len(costs)-1] / costs[0]; ratio > 6 {
		t.Fatalf("lookup cost grew %0.1f× over a 64× size increase (%v at %v)", ratio, costs, sizes)
	}
}

// TestLookupIntoZeroAlloc pins the indexed point-lookup hot path: after
// warmup, LookupInto allocates nothing — the ORAM access, padding dummies,
// node decoding, and record decoding all run in reused scratch.
func TestLookupIntoZeroAlloc(t *testing.T) {
	e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11})
	tbl, err := New(e, "t", tblSchema(), 0, 500, Options{RowsPerBlock: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rows := make([]table.Row, 500)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str("payload")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	dst := make(table.Row, 2)
	// Warm every scratch buffer and a few eviction cycles.
	for i := 0; i < 64; i++ {
		if _, err := tbl.LookupInto(int64(i%500), dst); err != nil {
			t.Fatal(err)
		}
	}
	k := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ok, err := tbl.LookupInto(k%500, dst)
		if err != nil || !ok {
			t.Fatalf("LookupInto(%d): ok=%v err=%v", k%500, ok, err)
		}
		k += 37
	})
	if allocs != 0 {
		t.Fatalf("LookupInto allocates %v times per run, want 0", allocs)
	}
}

// TestIndexObliviousMemoryCharge pins what an index reserves of the
// enclave's oblivious memory: its ring's slot metadata at 9 B per slot,
// the tree-top cache's plaintext slots, and the in-enclave position map
// at PosBytesPerBlock per ORAM block — nothing else, and Close returns
// all of it.
func TestIndexObliviousMemoryCharge(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	before := e.Used()
	tbl, err := New(e, "t", tblSchema(), 0, 2000, Options{RowsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := tbl.ORAM()
	levels := o.(*oram.Ring).Levels()
	if levels != 11 {
		t.Fatalf("ring has %d levels, want 11", levels)
	}
	// Under the default budget the cache holds levels/2 = 5 bucket levels.
	slots := ((1 << levels) - 1) * oram.RingSlots
	cache := ((1 << 5) - 1) * oram.RingSlots * o.BlockSize()
	want := 9*slots + cache + oram.PosBytesPerBlock*o.Capacity()
	if got := e.Used() - before; got != want {
		t.Fatalf("index reserves %d B, want %d: %d B metadata + %d B cache + %d B position map",
			got, want, 9*slots, cache, oram.PosBytesPerBlock*o.Capacity())
	}
	tbl.Close()
	if got := e.Used(); got != before {
		t.Fatalf("Close left %d B reserved, want %d", got, before)
	}
}

// TestHeightGrowsPolylog sanity-checks the public height function.
func TestHeightGrowsPolylog(t *testing.T) {
	tbl := newTable(t, 3000, Options{RowsPerBlock: 8}, nil)
	rows := make([]table.Row, 3000)
	for i := range rows {
		rows[i] = trow(int64(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if h := tbl.Height(); h < 3 || h > 7 {
		t.Fatalf("height %d for 3000 rows at fanout %d", h, fanout)
	}
}
