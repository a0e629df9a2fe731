package opaque

import (
	"fmt"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func testSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "grp", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
	)
}

func fill(t *testing.T, e *enclave.Enclave, rows [][3]int64) *storage.Flat {
	t.Helper()
	f, err := storage.NewFlat(e, "in", testSchema(), len(rows))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := f.InsertFast(table.Row{table.Int(r[0]), table.Int(r[1]), table.Int(r[2])}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestSelect(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	var rows [][3]int64
	for i := int64(0); i < 40; i++ {
		rows = append(rows, [3]int64{i, i % 4, i * 2})
	}
	f := fill(t, e, rows)
	out, err := Select(e, exec.FromFlat(f), func(r table.Row) bool { return r[0].AsInt() >= 30 }, 10, "out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("%d rows, want 10", len(got))
	}
	ids := map[int64]bool{}
	for _, r := range got {
		ids[r[0].AsInt()] = true
	}
	for i := int64(30); i < 40; i++ {
		if !ids[i] {
			t.Fatalf("missing id %d", i)
		}
	}
}

func TestSelectEmpty(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	f := fill(t, e, [][3]int64{{1, 0, 0}, {2, 0, 0}})
	out, err := Select(e, exec.FromFlat(f), table.None, 0, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("%d rows for empty select", out.NumRows())
	}
}

func TestSelectTraceOblivious(t *testing.T) {
	run := func(threshold int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		var rows [][3]int64
		for i := int64(0); i < 16; i++ {
			rows = append(rows, [3]int64{i, 0, 0})
		}
		f := fill(t, e, rows)
		tr.Reset()
		if _, err := Select(e, exec.FromFlat(f),
			func(r table.Row) bool { return r[0].AsInt() < threshold }, 4, "out"); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(4)  // first four match
	b := run(-1) // nothing matches (planner-declared size still 4)
	_ = b
	c := run(4)
	if d := trace.Diff(a, c); d != "" {
		t.Fatalf("same query, different trace: %s", d)
	}
}

func TestGroupAggregate(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	var rows [][3]int64
	for i := int64(0); i < 30; i++ {
		rows = append(rows, [3]int64{i, i % 3, 1})
	}
	f := fill(t, e, rows)
	out, err := GroupAggregate(e, exec.FromFlat(f), table.All,
		func(r table.Row) table.Value { return r[1] },
		[]exec.AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 2}}, "out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d groups, want 3", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0].AsInt() < got[j][0].AsInt() })
	for g, r := range got {
		if r[0].AsInt() != int64(g) || r[1].AsInt() != 10 || r[2].AsFloat() != 10 {
			t.Fatalf("group %d = %v", g, r)
		}
	}
}

func TestGroupAggregateStringKeys(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	s := table.MustSchema(
		table.Column{Name: "tag", Kind: table.KindString, Width: 8},
		table.Column{Name: "v", Kind: table.KindInt},
	)
	f, _ := storage.NewFlat(e, "in", s, 12)
	for i := 0; i < 12; i++ {
		_ = f.InsertFast(table.Row{table.Str(fmt.Sprintf("t%d", i%4)), table.Int(int64(i))}, nil)
	}
	out, err := GroupAggregate(e, exec.FromFlat(f), table.All,
		func(r table.Row) table.Value { return r[0] },
		[]exec.AggSpec{{Kind: exec.AggCount}}, "out")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := out.Rows()
	if len(rows) != 4 {
		t.Fatalf("%d groups, want 4", len(rows))
	}
	for _, r := range rows {
		if r[1].AsInt() != 3 {
			t.Fatalf("group %v count %v", r[0], r[1])
		}
	}
}

func TestGroupAggregateWithPredAndDummies(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	var rows [][3]int64
	for i := int64(0); i < 20; i++ {
		rows = append(rows, [3]int64{i, i % 2, 1})
	}
	f := fill(t, e, rows)
	// Delete a few rows to create unused blocks.
	if _, err := f.Delete(func(r table.Row) bool { return r[0].AsInt() < 4 }); err != nil {
		t.Fatal(err)
	}
	out, err := GroupAggregate(e, exec.FromFlat(f),
		func(r table.Row) bool { return r[0].AsInt() < 10 },
		func(r table.Row) table.Value { return r[1] },
		[]exec.AggSpec{{Kind: exec.AggCount}}, "out")
	if err != nil {
		t.Fatal(err)
	}
	rows2, _ := out.Rows()
	if len(rows2) != 2 {
		t.Fatalf("%d groups, want 2", len(rows2))
	}
	// ids 4..9 remain under pred: 4,6,8 even; 5,7,9 odd.
	for _, r := range rows2 {
		if r[1].AsInt() != 3 {
			t.Fatalf("group %v count = %v, want 3", r[0], r[1])
		}
	}
}

func TestGroupTraceFixed(t *testing.T) {
	run := func(mod int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		var rows [][3]int64
		for i := int64(0); i < 16; i++ {
			rows = append(rows, [3]int64{i, i % mod, 1})
		}
		f := fill(t, e, rows)
		tr.Reset()
		if _, err := GroupAggregate(e, exec.FromFlat(f), table.All,
			func(r table.Row) table.Value { return r[1] },
			[]exec.AggSpec{{Kind: exec.AggCount}}, "out"); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// 2 groups vs 8 groups: identical traces (group count shows only in
	// the used-flag contents, which are encrypted).
	a := run(2)
	b := run(8)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("group count leaks into trace: %s", d)
	}
}

func TestJoinDelegates(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	p := fill(t, e, [][3]int64{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}})
	q := fill(t, e, [][3]int64{{2, 0, 0}, {3, 0, 0}, {9, 0, 0}})
	out, err := Join(e, exec.FromFlat(p), exec.FromFlat(q), 0, 0, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("join found %d rows, want 2", out.NumRows())
	}
}
