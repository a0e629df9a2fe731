package obtree_test

import (
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/indexed"
	"oblidb/internal/table"
)

func TestBulkLoadMatchesIncremental(t *testing.T) {
	for _, n := range []int{1, 5, 13, 100, 500} {
		tree := newTree(t, n+50, nil)
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = trow(int64(rng.IntN(200)))
		}
		if err := tree.BulkLoad(rows); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.NumRows() != n {
			t.Fatalf("n=%d: NumRows=%d", n, tree.NumRows())
		}
		got, err := tree.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: range scan found %d rows", n, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i][0].AsInt() < got[i-1][0].AsInt() {
				t.Fatalf("n=%d: rows out of order at %d", n, i)
			}
		}
		// The loaded tree must support all mutations.
		if err := tree.Insert(trow(1000)); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := tree.Lookup(1000); !ok {
			t.Fatal("lookup after bulk load + insert failed")
		}
		k := rows[0][0].AsInt()
		if ok, err := tree.Delete(k); err != nil || !ok {
			t.Fatalf("delete(%d) after bulk load: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestBulkLoadDeleteAll(t *testing.T) {
	tree := newTree(t, 200, nil)
	rows := make([]table.Row, 120)
	for i := range rows {
		rows[i] = trow(int64(i))
	}
	if err := tree.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if ok, err := tree.Delete(int64(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if tree.NumRows() != 0 || tree.Height() != 0 {
		t.Fatalf("rows=%d height=%d after deleting all", tree.NumRows(), tree.Height())
	}
}

func TestBulkLoadRequiresEmpty(t *testing.T) {
	tree := newTree(t, 50, nil)
	_ = tree.Insert(trow(1))
	if err := tree.BulkLoad([]table.Row{trow(2)}); err == nil {
		t.Fatal("bulk load into non-empty tree accepted")
	}
}

func TestBulkLoadCapacity(t *testing.T) {
	tree := newTree(t, 4, nil)
	rows := make([]table.Row, 5)
	for i := range rows {
		rows[i] = trow(int64(i))
	}
	if err := tree.BulkLoad(rows); err == nil {
		t.Fatal("over-capacity bulk load accepted")
	}
	e := enclave.MustNew(enclave.Config{})
	tree2, err := indexed.New(e, "t2", treeSchema(), 0, 8, indexed.Options{RowsPerBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	if err := tree2.BulkLoad(nil); err != nil {
		t.Fatalf("empty bulk load: %v", err)
	}
}
