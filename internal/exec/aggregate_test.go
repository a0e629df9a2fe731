package exec

import (
	"strings"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func TestAggregateAll(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{5, 3, 9, 1, 7})
	got, err := Aggregate(FromFlat(in), table.All, []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, Col: 1},
		{Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 1},
		{Kind: AggAvg, Col: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].AsInt() != 5 {
		t.Fatalf("COUNT = %v", got[0])
	}
	if got[1].AsFloat() != 25 {
		t.Fatalf("SUM = %v", got[1])
	}
	if got[2].AsInt() != 1 || got[3].AsInt() != 9 {
		t.Fatalf("MIN/MAX = %v/%v", got[2], got[3])
	}
	if got[4].AsFloat() != 5 {
		t.Fatalf("AVG = %v", got[4])
	}
}

func TestFusedSelectAggregate(t *testing.T) {
	// The fused operator: aggregate only over rows matching a predicate,
	// with no intermediate table (§4.2).
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{5, 3, 9, 1, 7})
	got, err := Aggregate(FromFlat(in),
		func(r table.Row) bool { return r[1].AsInt() > 4 },
		[]AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].AsInt() != 3 || got[1].AsFloat() != 21 {
		t.Fatalf("fused agg = %v", got)
	}
}

func TestAggregateEmptyAndErrors(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", nil)
	if _, err := Aggregate(FromFlat(in), table.All, nil); err == nil {
		t.Fatal("no specs accepted")
	}
	got, err := Aggregate(FromFlat(in), table.All, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].AsInt() != 0 || got[1].AsFloat() != 0 {
		t.Fatalf("empty-table aggregates = %v", got)
	}
	if _, err := Aggregate(FromFlat(in), table.All, []AggSpec{{Kind: AggSum, Col: 99}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := Aggregate(FromFlat(in), table.All, []AggSpec{{Kind: AggSum, Col: 2}}); err == nil {
		// col 2 is a string
		t.Skip("empty table: type error surfaces only with rows")
	}
}

func TestAggregateSumOverString(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1})
	if _, err := Aggregate(FromFlat(in), table.All, []AggSpec{{Kind: AggSum, Col: 2}}); err == nil {
		t.Fatal("SUM over string column accepted")
	}
}

func TestAggregateTraceOblivious(t *testing.T) {
	run := func(vals []int64, threshold int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		in := buildFlat(t, e, "in", vals)
		tr.Reset()
		if _, err := Aggregate(FromFlat(in),
			func(r table.Row) bool { return r[1].AsInt() > threshold },
			[]AggSpec{{Kind: AggSum, Col: 1}}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run([]int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	b := run([]int64{9, 9, 9, 9, 0, 0, 0, 0}, 100)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("aggregate trace depends on data: %s", d)
	}
	if a.Len() != 8 {
		t.Fatalf("aggregate made %d accesses, want one read per block", a.Len())
	}
}

func groupByVal(r table.Row) table.Value { return r[1] }

func TestGroupAggregate(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1, 2, 1, 3, 2, 1})
	out, err := GroupAggregate(e, FromFlat(in), table.All, groupByVal,
		[]AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 0}},
		GroupAggregateOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := out.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d groups, want 3", len(rows))
	}
	// Groups sorted by key: 1 (count 3), 2 (count 2), 3 (count 1).
	wantCounts := map[int64]int64{1: 3, 2: 2, 3: 1}
	for _, r := range rows {
		if r[1].AsInt() != wantCounts[r[0].AsInt()] {
			t.Fatalf("group %v count %v", r[0], r[1])
		}
	}
}

func TestGroupAggregateStringKeys(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{10, 20, 10, 20, 10})
	out, err := GroupAggregate(e, FromFlat(in), table.All,
		func(r table.Row) table.Value { return r[2] }, // tag strings t10/t20
		[]AggSpec{{Kind: AggCount}},
		GroupAggregateOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := out.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d groups, want 2", len(rows))
	}
	if !strings.HasPrefix(rows[0][0].AsString(), "t") {
		t.Fatalf("group key %v", rows[0][0])
	}
}

func TestGroupAggregateMaxGroups(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1, 2, 3, 4, 5})
	if _, err := GroupAggregate(e, FromFlat(in), table.All, groupByVal,
		[]AggSpec{{Kind: AggCount}}, GroupAggregateOptions{MaxGroups: 3}, "out"); err == nil {
		t.Fatal("exceeding MaxGroups accepted")
	}
}

func TestGroupAggregateObliviousMemoryReleased(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1, 2, 3, 1, 2, 3})
	free := e.Available()
	if _, err := GroupAggregate(e, FromFlat(in), table.All, groupByVal,
		[]AggSpec{{Kind: AggCount}}, GroupAggregateOptions{}, "out"); err != nil {
		t.Fatal(err)
	}
	if e.Available() != free {
		t.Fatal("group table reservation leaked")
	}
}

func TestGroupAggregatePadding(t *testing.T) {
	// Padding mode pads the output to the maximum supported group count.
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1, 2, 1})
	out, err := GroupAggregate(e, FromFlat(in), table.All, groupByVal,
		[]AggSpec{{Kind: AggCount}}, GroupAggregateOptions{PadGroups: 10}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.Capacity() != 10 {
		t.Fatalf("padded capacity %d, want 10", out.Capacity())
	}
	rows, _ := out.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d real groups, want 2", len(rows))
	}
}

func TestGroupAggregateTraceOblivious(t *testing.T) {
	// Same |T| and group count, different group shapes → same trace.
	run := func(vals []int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		in := buildFlat(t, e, "in", vals)
		tr.Reset()
		if _, err := GroupAggregate(e, FromFlat(in), table.All, groupByVal,
			[]AggSpec{{Kind: AggCount}}, GroupAggregateOptions{}, "out"); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run([]int64{1, 1, 1, 1, 2, 2, 2, 2})
	b := run([]int64{3, 4, 3, 4, 3, 4, 3, 4})
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("grouped aggregation trace depends on data: %s", d)
	}
}

func TestGroupAggregateFused(t *testing.T) {
	// Fused select+group+aggregate: predicate applied in the same pass.
	e := enclave.MustNew(enclave.Config{})
	in := buildFlat(t, e, "in", []int64{1, 2, 1, 2, 1, 2})
	out, err := GroupAggregate(e, FromFlat(in),
		func(r table.Row) bool { return r[0].AsInt() >= 2 }, // ids 2..5
		groupByVal, []AggSpec{{Kind: AggCount}}, GroupAggregateOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := out.Rows()
	if len(rows) != 2 || rows[0][1].AsInt() != 2 || rows[1][1].AsInt() != 2 {
		t.Fatalf("fused grouped agg wrong: %v", rows)
	}
}

// TestGroupAddExistingGroupZeroAllocs pins grouped aggregation's per-row
// path: a row whose group already exists renders its key into the
// reused buffer, looks it up and folds in without allocating.
func TestGroupAddExistingGroupZeroAllocs(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	gt := newGroupTable(e, []AggSpec{{Kind: AggSum, Col: 0}, {Kind: AggCount}}, 8)
	defer e.Release(gt.reserved)
	for _, key := range []table.Value{table.Str("10.0.0.1"), table.Int(7), table.Float(2.5)} {
		row := table.Row{table.Int(3), key}
		if err := gt.add(key, row); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := gt.add(key, row); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("adding a %s row to its existing group allocates %v times", key.Kind, n)
		}
	}
	if len(gt.groups) != 3 {
		t.Fatalf("%d groups, want 3", len(gt.groups))
	}
}
