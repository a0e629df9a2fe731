package storage

import (
	"testing"
	"testing/quick"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func kvSchema(t *testing.T) *table.Schema {
	t.Helper()
	return table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "v", Kind: table.KindString, Width: 12},
	)
}

func newFlat(t *testing.T, capacity int, tr *trace.Tracer) *Flat {
	t.Helper()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	f, err := NewFlat(e, "t", kvSchema(t), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func row(k int64, v string) table.Row { return table.Row{table.Int(k), table.Str(v)} }

func TestInsertAndRows(t *testing.T) {
	f := newFlat(t, 8, nil)
	for i := int64(0); i < 5; i++ {
		if err := f.Insert(row(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", f.NumRows())
	}
	rows, err := f.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d has key %d", i, r[0].AsInt())
		}
	}
}

func TestInsertFull(t *testing.T) {
	f := newFlat(t, 2, nil)
	_ = f.Insert(row(1, "a"))
	_ = f.Insert(row(2, "b"))
	if err := f.Insert(row(3, "c")); err == nil {
		t.Fatal("insert into full table succeeded")
	}
	if err := f.InsertFast(row(3, "c"), nil); err == nil {
		t.Fatal("fast insert into full table succeeded")
	}
}

func TestInsertFillsHoles(t *testing.T) {
	f := newFlat(t, 4, nil)
	for i := int64(0); i < 4; i++ {
		_ = f.Insert(row(i, "x"))
	}
	if _, err := f.Delete(func(r table.Row) bool { return r[0].AsInt() == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(row(9, "new")); err != nil {
		t.Fatal(err)
	}
	rows, _ := f.Rows()
	if len(rows) != 4 || rows[1][0].AsInt() != 9 {
		t.Fatalf("hole not refilled: %v", rows)
	}
}

func TestInsertFastSequential(t *testing.T) {
	f := newFlat(t, 4, nil)
	for i := int64(0); i < 3; i++ {
		if err := f.InsertFast(row(i, "x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	rows, _ := f.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestInsertFastIsConstantTime(t *testing.T) {
	tr := trace.New()
	f := newFlat(t, 16, tr)
	tr.Reset()
	if err := f.InsertFast(row(1, "a"), nil); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("fast insert made %d accesses, want 1", tr.Len())
	}
	tr.Reset()
	if err := f.Insert(row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2*f.Capacity() {
		t.Fatalf("oblivious insert made %d accesses, want %d", tr.Len(), 2*f.Capacity())
	}
}

func TestUpdateCountsAndApplies(t *testing.T) {
	f := newFlat(t, 6, nil)
	for i := int64(0); i < 6; i++ {
		_ = f.Insert(row(i, "old"))
	}
	n, err := f.Update(
		func(r table.Row) bool { return r[0].AsInt()%2 == 0 },
		func(r table.Row) table.Row { r[1] = table.Str("new"); return r },
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("updated %d, want 3", n)
	}
	rows, _ := f.Rows()
	for _, r := range rows {
		want := "old"
		if r[0].AsInt()%2 == 0 {
			want = "new"
		}
		if r[1].AsString() != want {
			t.Fatalf("row %d: %q", r[0].AsInt(), r[1].AsString())
		}
	}
}

func TestDelete(t *testing.T) {
	f := newFlat(t, 6, nil)
	for i := int64(0); i < 6; i++ {
		_ = f.Insert(row(i, "x"))
	}
	n, err := f.Delete(func(r table.Row) bool { return r[0].AsInt() >= 4 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || f.NumRows() != 4 {
		t.Fatalf("deleted %d rows, NumRows %d", n, f.NumRows())
	}
}

// TestMutationTraceOblivious is the core §3.1 property: insert, update,
// and delete must produce identical traces regardless of which rows they
// touch — one read and one write per block.
func TestMutationTraceOblivious(t *testing.T) {
	run := func(deleteKey int64, updKey int64, insKey int64) *trace.Tracer {
		tr := trace.New()
		f := newFlat(t, 8, tr)
		for i := int64(0); i < 6; i++ {
			if err := f.Insert(row(i, "x")); err != nil {
				t.Fatal(err)
			}
		}
		tr.Reset()
		if err := f.Insert(row(insKey, "new")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Update(
			func(r table.Row) bool { return r[0].AsInt() == updKey },
			func(r table.Row) table.Row { r[1] = table.Str("u"); return r },
		); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Delete(func(r table.Row) bool { return r[0].AsInt() == deleteKey }); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(0, 1, 100)
	b := run(5, 4, 200)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("mutation trace depends on data: %s", d)
	}
}

func TestScanTraceFixed(t *testing.T) {
	tr := trace.New()
	f := newFlat(t, 8, tr)
	_ = f.Insert(row(1, "a"))
	tr.Reset()
	_ = f.Scan(func(int, table.Row, bool) error { return nil })
	if tr.Len() != 8 {
		t.Fatalf("scan made %d accesses, want 8", tr.Len())
	}
	for i, e := range tr.Events() {
		if e.Op != trace.Read || int(e.Index) != i {
			t.Fatalf("scan access %d is %v", i, e)
		}
	}
}

func TestCopyIntoAndExpand(t *testing.T) {
	f := newFlat(t, 4, nil)
	for i := int64(0); i < 4; i++ {
		_ = f.Insert(row(i, "x"))
	}
	big, err := f.Expand("t2", 10)
	if err != nil {
		t.Fatal(err)
	}
	if big.Capacity() != 10 || big.NumRows() != 4 {
		t.Fatalf("expanded capacity=%d rows=%d", big.Capacity(), big.NumRows())
	}
	rows, _ := big.Rows()
	if len(rows) != 4 {
		t.Fatalf("expanded table has %d rows", len(rows))
	}
	if err := big.Insert(row(99, "y")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Expand("t3", 2); err == nil {
		t.Fatal("shrinking expand succeeded")
	}
}

func TestCopyIntoSchemaMismatch(t *testing.T) {
	f := newFlat(t, 2, nil)
	e := enclave.MustNew(enclave.Config{})
	other, _ := NewFlat(e, "o", table.MustSchema(table.Column{Name: "z", Kind: table.KindInt}), 2)
	if err := f.CopyInto(other); err == nil {
		t.Fatal("schema mismatch copy succeeded")
	}
}

func TestSetRowAndBump(t *testing.T) {
	f := newFlat(t, 3, nil)
	if err := f.SetRow(1, row(7, "v"), true); err != nil {
		t.Fatal(err)
	}
	if err := f.SetRow(2, nil, false); err != nil {
		t.Fatal(err)
	}
	f.BumpRows(1)
	rows, _ := f.Rows()
	if len(rows) != 1 || rows[0][0].AsInt() != 7 || f.NumRows() != 1 {
		t.Fatalf("SetRow result wrong: %v rows=%d", rows, f.NumRows())
	}
}

func TestZeroCapacityRejected(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	if _, err := NewFlat(e, "t", table.MustSchema(table.Column{Name: "k", Kind: table.KindInt}), 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestInsertRejectsBadRow(t *testing.T) {
	f := newFlat(t, 2, nil)
	if err := f.Insert(table.Row{table.Str("wrong"), table.Str("v")}); err == nil {
		t.Fatal("bad row accepted")
	}
}

// TestMutationSequenceProperty: any insert/delete sequence keeps NumRows
// equal to the live-row count, and content matches a model multiset.
func TestMutationSequenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		flat := newFlat(t, 32, nil)
		model := map[int64]int{}
		live := 0
		for _, op := range ops {
			k := int64(op % 8)
			if op%2 == 0 && live < 32 {
				if flat.Insert(row(k, "p")) != nil {
					return false
				}
				model[k]++
				live++
			} else {
				n, err := flat.Delete(func(r table.Row) bool { return r[0].AsInt() == k })
				if err != nil {
					return false
				}
				if n != model[k] {
					return false
				}
				live -= n
				model[k] = 0
			}
			if flat.NumRows() != live {
				return false
			}
		}
		rows, err := flat.Rows()
		if err != nil || len(rows) != live {
			return false
		}
		counts := map[int64]int{}
		for _, r := range rows {
			counts[r[0].AsInt()]++
		}
		for k, c := range model {
			if counts[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
