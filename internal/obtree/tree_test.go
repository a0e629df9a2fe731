package obtree_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/indexed"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func treeSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 20},
	)
}

func newTree(t *testing.T, maxRows int, tr *trace.Tracer) *indexed.Table {
	t.Helper()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	tree, err := indexed.New(e, "idx", treeSchema(), 0, maxRows, indexed.Options{RowsPerBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tree
}

func trow(k int64) table.Row {
	return table.Row{table.Int(k), table.Str(fmt.Sprintf("p%d", k))}
}

func TestNewValidation(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	s := treeSchema()
	if _, err := indexed.New(e, "i", s, 5, 10, indexed.Options{RowsPerBlock: 1}); err == nil {
		t.Error("out-of-range key column accepted")
	}
	if _, err := indexed.New(e, "i", s, 1, 10, indexed.Options{RowsPerBlock: 1}); err == nil {
		t.Error("string key column accepted")
	}
	if _, err := indexed.New(e, "i", s, 0, 0, indexed.Options{RowsPerBlock: 1}); err == nil {
		t.Error("zero maxRows accepted")
	}
}

func TestInsertLookup(t *testing.T) {
	tree := newTree(t, 64, nil)
	for i := int64(0); i < 40; i++ {
		if err := tree.Insert(trow(i * 2)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tree.NumRows() != 40 {
		t.Fatalf("NumRows = %d, want 40", tree.NumRows())
	}
	for i := int64(0); i < 40; i++ {
		row, ok, err := tree.Lookup(i * 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || row[0].AsInt() != i*2 {
			t.Fatalf("lookup %d: ok=%v row=%v", i*2, ok, row)
		}
		if _, ok, _ := tree.Lookup(i*2 + 1); ok {
			t.Fatalf("lookup of absent key %d succeeded", i*2+1)
		}
	}
}

func TestLookupEmptyTree(t *testing.T) {
	tree := newTree(t, 8, nil)
	if _, ok, err := tree.Lookup(1); ok || err != nil {
		t.Fatalf("empty lookup: ok=%v err=%v", ok, err)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tree := newTree(t, 64, nil)
	for i := 0; i < 20; i++ {
		if err := tree.Insert(table.Row{table.Int(7), table.Str(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tree.RangeScan(7, 7, func(uint32, table.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("range scan found %d duplicates, want 20", n)
	}
	for i := 0; i < 20; i++ {
		ok, err := tree.Delete(7)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if ok, _ := tree.Delete(7); ok {
		t.Fatal("delete on empty key succeeded")
	}
	if tree.Height() != 0 {
		t.Fatalf("tree height %d after emptying", tree.Height())
	}
}

func TestRangeScanOrdered(t *testing.T) {
	tree := newTree(t, 128, nil)
	perm := rand.New(rand.NewPCG(4, 4)).Perm(100)
	for _, k := range perm {
		if err := tree.Insert(trow(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	n, err := tree.RangeScan(25, 74, func(_ uint32, r table.Row) error {
		got = append(got, r[0].AsInt())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || len(got) != 50 {
		t.Fatalf("scanned %d rows, want 50", n)
	}
	for i, k := range got {
		if k != int64(25+i) {
			t.Fatalf("position %d: key %d, want %d", i, k, 25+i)
		}
	}
	// Empty and inverted ranges.
	if n, _ := tree.RangeScan(1000, 2000, func(uint32, table.Row) error { return nil }); n != 0 {
		t.Fatalf("out-of-range scan returned %d", n)
	}
	if n, _ := tree.RangeScan(50, 20, func(uint32, table.Row) error { return nil }); n != 0 {
		t.Fatalf("inverted scan returned %d", n)
	}
}

func TestUpdateByKey(t *testing.T) {
	tree := newTree(t, 32, nil)
	for i := int64(0); i < 10; i++ {
		_ = tree.Insert(trow(i))
	}
	ok, err := tree.UpdateByKey(4, func(r table.Row) table.Row {
		r[1] = table.Str("updated")
		return r
	})
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	row, _, _ := tree.Lookup(4)
	if row[1].AsString() != "updated" {
		t.Fatalf("update not applied: %v", row)
	}
	if ok, _ := tree.UpdateByKey(99, func(r table.Row) table.Row { return r }); ok {
		t.Fatal("update of absent key reported success")
	}
	if _, err := tree.UpdateByKey(4, func(r table.Row) table.Row {
		r[0] = table.Int(5)
		return r
	}); err == nil {
		t.Fatal("key-changing update accepted")
	}
}

func TestFullTree(t *testing.T) {
	tree := newTree(t, 4, nil)
	for i := int64(0); i < 4; i++ {
		if err := tree.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Insert(trow(5)); err == nil {
		t.Fatal("insert into full index succeeded")
	}
}

// TestModel runs a random op mix against a sorted-multiset model.
func TestModel(t *testing.T) {
	tree := newTree(t, 300, nil)
	rng := rand.New(rand.NewPCG(11, 13))
	model := map[int64]int{} // key -> count
	live := 0
	for step := 0; step < 3000; step++ {
		k := int64(rng.IntN(60))
		switch op := rng.IntN(4); {
		case op <= 1 && live < 300: // insert
			if err := tree.Insert(trow(k)); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			model[k]++
			live++
		case op == 2: // delete
			ok, err := tree.Delete(k)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if ok != (model[k] > 0) {
				t.Fatalf("step %d: delete(%d) ok=%v, model count %d", step, k, ok, model[k])
			}
			if ok {
				model[k]--
				live--
			}
		default: // lookup
			_, ok, err := tree.Lookup(k)
			if err != nil {
				t.Fatalf("step %d lookup: %v", step, err)
			}
			if ok != (model[k] > 0) {
				t.Fatalf("step %d: lookup(%d) ok=%v, model count %d", step, k, ok, model[k])
			}
		}
	}
	// Final full-content check via range scan.
	var keys []int64
	if _, err := tree.RangeScan(math.MinInt64, math.MaxInt64, func(_ uint32, r table.Row) error {
		keys = append(keys, r[0].AsInt())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k, c := range model {
		for i := 0; i < c; i++ {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(keys) != len(want) {
		t.Fatalf("tree has %d rows, model %d", len(keys), len(want))
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("position %d: key %d, model %d", i, keys[i], want[i])
		}
	}
	if tree.NumRows() != live {
		t.Fatalf("NumRows=%d, live=%d", tree.NumRows(), live)
	}
}

func TestScanRawMatchesRangeScan(t *testing.T) {
	tree := newTree(t, 64, nil)
	rng := rand.New(rand.NewPCG(5, 5))
	inserted := map[int64]bool{}
	for i := 0; i < 50; i++ {
		k := int64(rng.IntN(1000))
		if inserted[k] {
			continue
		}
		inserted[k] = true
		if err := tree.Insert(trow(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few to leave cleared record blocks behind.
	deleted := 0
	for k := range inserted {
		if deleted == 10 {
			break
		}
		if ok, err := tree.Delete(k); err != nil || !ok {
			t.Fatal(err)
		}
		delete(inserted, k)
		deleted++
	}
	got := map[int64]bool{}
	if err := tree.ScanRaw(func(_ uint32, r table.Row) error {
		k := r[0].AsInt()
		if got[k] {
			return fmt.Errorf("duplicate key %d in raw scan", k)
		}
		got[k] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inserted) {
		t.Fatalf("raw scan found %d rows, want %d", len(got), len(inserted))
	}
	for k := range inserted {
		if !got[k] {
			t.Fatalf("raw scan missed key %d", k)
		}
	}
}

func TestHeightGrowsPolylog(t *testing.T) {
	tree := newTree(t, 1100, nil)
	for i := int64(0); i < 1000; i++ {
		if err := tree.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	// fanout 8, 1000 rows: height should be ~log_8(1000)+1 ≈ 4-5.
	if h := tree.Height(); h < 3 || h > 6 {
		t.Fatalf("height %d for 1000 rows, want 3-6", h)
	}
}

func TestRowsOrdered(t *testing.T) {
	tree := newTree(t, 32, nil)
	for _, k := range []int64{5, 1, 9, 3, 7} {
		_ = tree.Insert(trow(k))
	}
	rows, err := tree.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 5, 7, 9}
	for i, r := range rows {
		if r[0].AsInt() != want[i] {
			t.Fatalf("rows out of order: %v", rows)
		}
	}
}

func TestDeleteAcrossLeafBoundary(t *testing.T) {
	// Force duplicates to straddle leaves, then delete them all: exercises
	// the peek-and-re-descend path.
	tree := newTree(t, 128, nil)
	for i := 0; i < 30; i++ {
		_ = tree.Insert(table.Row{table.Int(1), table.Str("a")})
		_ = tree.Insert(table.Row{table.Int(2), table.Str("b")})
	}
	for i := 0; i < 30; i++ {
		if ok, err := tree.Delete(2); err != nil || !ok {
			t.Fatalf("delete 2 #%d: ok=%v err=%v", i, ok, err)
		}
	}
	n, _ := tree.RangeScan(1, 1, func(uint32, table.Row) error { return nil })
	if n != 30 {
		t.Fatalf("%d rows with key 1 remain, want 30", n)
	}
	if tree.NumRows() != 30 {
		t.Fatalf("NumRows=%d, want 30", tree.NumRows())
	}
}
