package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// These tests cover the engine's partition workers (Config.Workers): identical
// results to the serial engine, and end-to-end obliviousness of the
// partitioned execution (parent trace plus per-worker trace multiset).

func seedBig(t *testing.T, db *DB, n int) {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 17)
	}
	seedFlat(t, db, vals)
}

func sortedIDs(res *Result) []int64 {
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].AsInt()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// seedKeyed loads an n-row [id, val] table "t" of the given storage
// kind, keyed on id unless it is flat.
func seedKeyed(t *testing.T, db *DB, kind StorageKind, n int) {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
	)
	opts := TableOptions{Kind: kind, Capacity: n}
	if kind != KindFlat {
		opts.KeyColumn = "id"
	}
	if _, err := db.CreateTable("t", s, opts); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Int(int64(i % 17))}
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsBothPools pins the one-pool contract: Workers sizes a
// single pool whose contexts serve as partition workers and as read
// slots. A read takes the exclusive side exactly when EXPLAIN gives one
// of its operators P ≥ 2, and then runs partitioned over at least two
// workers; every other read takes one read slot and never the exclusive
// side.
func TestOpenRejectsBothPools(t *testing.T) {
	pred := table.Pred(func(r table.Row) bool { return r[1].AsInt() == 5 })
	selectT := func() plan.Node {
		return &plan.Collect{Input: &plan.Filter{Input: &plan.Scan{Table: "t"}, Cond: pred}}
	}
	for _, tc := range []struct {
		name  string
		kind  StorageKind
		rows  int
		plan  func() plan.Node
		split bool // EXPLAIN shows P=4, one exclusive acquisition, ≥ 2 busy workers
	}{
		{name: "flat-256", kind: KindFlat, rows: 256, plan: selectT, split: true},
		{name: "flat-16", kind: KindFlat, rows: 16, plan: selectT},
		// An index-only table's full scan materializes a flat
		// intermediate the select then partitions.
		{name: "indexed-256", kind: KindIndexed, rows: 256, plan: selectT, split: true},
		// An index-served range materializes only its three rows.
		{name: "index-range-256", kind: KindBoth, rows: 256, plan: func() plan.Node {
			return &plan.Collect{Input: &plan.Filter{
				Input: &plan.IndexScan{Table: "t", KeyCol: "id", Range: plan.KeyRange{Lo: 3, Hi: 5}}, Cond: pred}}
		}},
		// The sort's copy pass and network never partition.
		{name: "sort-256", kind: KindFlat, rows: 256, plan: func() plan.Node {
			return &plan.Collect{Input: &plan.Sort{Input: &plan.Filter{Input: &plan.Scan{Table: "t"}, Cond: pred}}}
		}},
		{name: "aggregate-256", kind: KindFlat, rows: 256, split: true, plan: func() plan.Node {
			return &plan.Aggregate{Input: &plan.Filter{Input: &plan.Scan{Table: "t"}, Cond: pred},
				Specs: []plan.AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Column: "id"}}}
		}},
		// A fused aggregate over a join output partitions that output.
		{name: "join-aggregate-256", kind: KindFlat, rows: 256, split: true, plan: func() plan.Node {
			join := &plan.Join{Left: &plan.Scan{Table: "t"}, Right: &plan.Scan{Table: "t"},
				LeftTable: "t", RightTable: "t", LeftCol: "id", RightCol: "id"}
			return &plan.Aggregate{Input: &plan.Filter{Input: join}, Specs: []plan.AggSpec{{Kind: exec.AggCount}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wts := []*trace.Tracer{trace.New(), trace.New(), trace.New(), trace.New()}
			db := MustOpen(Config{Workers: 4, WorkerTracers: wts, RowsPerBlock: 1})
			serial := MustOpen(Config{RowsPerBlock: 1})
			seedKeyed(t, db, tc.kind, tc.rows)
			seedKeyed(t, serial, tc.kind, tc.rows)
			explain := strings.Join(db.ExplainPlan(tc.plan()), "\n")
			if got := strings.Contains(explain, "P=4"); got != tc.split {
				t.Fatalf("EXPLAIN shows P=4: %v, want %v:\n%s", got, tc.split, explain)
			}
			if !tc.split && strings.Contains(explain, "P=") {
				t.Fatalf("EXPLAIN shows a partition count on an unsplit read:\n%s", explain)
			}
			for _, w := range wts {
				w.Reset()
			}
			before := db.LockStats()
			got, err := db.ExecutePlan(tc.plan(), funcBinder{})
			if err != nil {
				t.Fatal(err)
			}
			exclusive := db.LockStats().ExclusiveAcquires - before.ExclusiveAcquires
			busy := 0
			for _, w := range wts {
				if w.Len() > 0 {
					busy++
				}
			}
			if tc.split && (exclusive != 1 || busy < 2) {
				t.Fatalf("split read: %d exclusive acquisitions, %d busy workers; want 1 and ≥ 2", exclusive, busy)
			}
			if !tc.split && (exclusive != 0 || busy != 1) {
				t.Fatalf("slot read: %d exclusive acquisitions, %d busy workers; want 0 and 1", exclusive, busy)
			}
			want, err := serial.ExecutePlan(tc.plan(), funcBinder{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sortedIDs(got)) != fmt.Sprint(sortedIDs(want)) {
				t.Fatalf("pooled read %v, serial %v", sortedIDs(got), sortedIDs(want))
			}
		})
	}
	if got, want := MustOpen(Config{Workers: -1}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers -1: Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestParallelEngineMatchesSerial(t *testing.T) {
	const n = 256
	serial := MustOpen(Config{})
	seedBig(t, serial, n)
	par := MustOpen(Config{Workers: 4})
	seedBig(t, par, n)
	if par.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", par.Workers())
	}

	pred := func(r table.Row) bool { return r[1].AsInt() == 5 }
	for _, force := range []*exec.SelectAlgorithm{nil, algPtr(exec.SelectLarge), algPtr(exec.SelectHash), algPtr(exec.SelectSmall)} {
		name := "planner"
		if force != nil {
			name = force.String()
		}
		t.Run("select/"+name, func(t *testing.T) {
			a, err := serial.Select("t", pred, SelectOptions{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Select("t", pred, SelectOptions{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			av, bv := sortedIDs(a), sortedIDs(b)
			if fmt.Sprint(av) != fmt.Sprint(bv) {
				t.Fatalf("parallel select differs: %v vs %v", bv, av)
			}
		})
	}

	t.Run("aggregate", func(t *testing.T) {
		specs := []AggregateSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Column: "val"}, {Kind: exec.AggMax, Column: "val"}}
		a, err := serial.Aggregate("t", pred, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Aggregate("t", pred, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Rows[0] {
			if !a.Rows[0][i].Equal(b.Rows[0][i]) {
				t.Fatalf("aggregate %d: parallel %v, serial %v", i, b.Rows[0][i], a.Rows[0][i])
			}
		}
	})

	t.Run("group", func(t *testing.T) {
		groupBy := func(r table.Row) table.Value { return r[1] }
		specs := []AggregateSpec{{Kind: exec.AggCount}}
		a, err := serial.GroupAggregate("t", nil, groupBy, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.GroupAggregate("t", nil, groupBy, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("group counts differ: %d vs %d", len(b.Rows), len(a.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if !a.Rows[i][j].Equal(b.Rows[i][j]) {
					t.Fatalf("group row %d differs", i)
				}
			}
		}
	})
}

func algPtr(a exec.SelectAlgorithm) *exec.SelectAlgorithm { return &a }

func TestParallelJoinMatchesSerial(t *testing.T) {
	setup := func(cfg Config) *DB {
		db := MustOpen(cfg)
		s1 := table.MustSchema(table.Column{Name: "pk", Kind: table.KindInt})
		s2 := table.MustSchema(table.Column{Name: "fk", Kind: table.KindInt})
		if _, err := db.CreateTable("l", s1, TableOptions{Capacity: 32}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("r", s2, TableOptions{Capacity: 256}); err != nil {
			t.Fatal(err)
		}
		lrows := make([]table.Row, 32)
		for i := range lrows {
			lrows[i] = table.Row{table.Int(int64(i))}
		}
		rrows := make([]table.Row, 256)
		for i := range rrows {
			rrows[i] = table.Row{table.Int(int64(i % 40))}
		}
		if err := db.BulkLoad("l", lrows); err != nil {
			t.Fatal(err)
		}
		if err := db.BulkLoad("r", rrows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	alg := exec.JoinHash
	serial := setup(Config{})
	par := setup(Config{Workers: 4})
	a, err := serial.Join("l", "r", "pk", "fk", JoinOptions{Force: &alg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Join("l", "r", "pk", "fk", JoinOptions{Force: &alg})
	if err != nil {
		t.Fatal(err)
	}
	key := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprintf("%v|%v", r[0], r[1])
		}
		sort.Strings(out)
		return out
	}
	ak, bk := key(a), key(b)
	if fmt.Sprint(ak) != fmt.Sprint(bk) {
		t.Fatalf("parallel join differs:\n%v\nvs\n%v", bk, ak)
	}
}

// parallelTracedRun executes one select on a Workers-4 engine with
// per-worker tracers and reduces it to (parent canonical, worker
// multiset) fingerprints. rpb pins the packing factor: R = 1 keeps the
// 256-row table at 256 sealed blocks (the paper geometry), R > 1 runs
// the same check over block-aligned packed partitions.
func parallelTracedRun(t *testing.T, vals []int64, param int64, force *exec.SelectAlgorithm, rpb int) ([32]byte, [32]byte) {
	t.Helper()
	parent := trace.New()
	wts := make([]*trace.Tracer, 4)
	for i := range wts {
		wts[i] = trace.New()
	}
	db, err := Open(Config{Tracer: parent, Key: fixedKey, Workers: 4, WorkerTracers: wts, RowsPerBlock: rpb})
	if err != nil {
		t.Fatal(err)
	}
	seedFlat(t, db, vals)
	parent.Reset()
	tab, _ := db.Table("t")
	if _, err := db.selectTable(db.serialCtx, tab, func(r table.Row) bool { return r[1].AsInt() == param }, nil, force); err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, w := range wts {
		events += w.Len()
	}
	if events == 0 {
		t.Fatal("parallel path did not engage: no worker events")
	}
	return parent.CanonicalFingerprint(), trace.MultisetFingerprint(wts)
}

func TestEndToEndParallelSelectTraceOblivious(t *testing.T) {
	// 256 rows so the planner's partition rule actually engages; same
	// |T| and |R|, different data and parameters.
	const n, k = 256, 32
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i*5] = 7
		valsB[i*3+100] = 9
	}
	for _, force := range []*exec.SelectAlgorithm{nil, algPtr(exec.SelectHash), algPtr(exec.SelectLarge)} {
		name := "planner"
		if force != nil {
			name = force.String()
		}
		t.Run(name, func(t *testing.T) {
			pa, wa := parallelTracedRun(t, valsA, 7, force, 1)
			pb, wb := parallelTracedRun(t, valsB, 9, force, 1)
			if pa != pb {
				t.Fatal("parallel engine: parent trace depends on data")
			}
			if wa != wb {
				t.Fatal("parallel engine: worker trace multiset depends on data")
			}
		})
	}
}

func TestEndToEndParallelSelectTraceObliviousPacked(t *testing.T) {
	// The packed parallel path — block-aligned PartitionView reads,
	// RangeWriter sealed fills and RMW blocks — under the same
	// end-to-end check: at R = 4 a 2048-row table is 512 sealed blocks,
	// enough for the partition rule to engage all 4 workers.
	const n, k = 2048, 128
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i*5] = 7
		valsB[i*3+1000] = 9
	}
	for _, force := range []*exec.SelectAlgorithm{nil, algPtr(exec.SelectHash), algPtr(exec.SelectLarge)} {
		name := "planner"
		if force != nil {
			name = force.String()
		}
		t.Run(name, func(t *testing.T) {
			pa, wa := parallelTracedRun(t, valsA, 7, force, 4)
			pb, wb := parallelTracedRun(t, valsB, 9, force, 4)
			if pa != pb {
				t.Fatal("packed parallel engine: parent trace depends on data")
			}
			if wa != wb {
				t.Fatal("packed parallel engine: worker trace multiset depends on data")
			}
		})
	}
}

func TestEndToEndParallelAggregateTraceOblivious(t *testing.T) {
	run := func(vals []int64, threshold int64) ([32]byte, [32]byte) {
		parent := trace.New()
		wts := make([]*trace.Tracer, 4)
		for i := range wts {
			wts[i] = trace.New()
		}
		db, err := Open(Config{Tracer: parent, Key: fixedKey, Workers: 4, WorkerTracers: wts, RowsPerBlock: 1})
		if err != nil {
			t.Fatal(err)
		}
		seedFlat(t, db, vals)
		parent.Reset()
		if _, err := db.Aggregate("t",
			func(r table.Row) bool { return r[1].AsInt() > threshold },
			[]AggregateSpec{{Kind: exec.AggSum, Column: "val"}}, nil); err != nil {
			t.Fatal(err)
		}
		return parent.CanonicalFingerprint(), trace.MultisetFingerprint(wts)
	}
	many := make([]int64, 256)
	flat := make([]int64, 256)
	for i := range many {
		many[i] = int64(i)
		flat[i] = 1
	}
	pa, wa := run(many, 128)
	pb, wb := run(flat, 0)
	if pa != pb || wa != wb {
		t.Fatal("parallel aggregate trace depends on data")
	}
}

func TestParallelLargeSelect(t *testing.T) {
	// The Large regime (R ≈ N) exercises the concat combine path
	// end-to-end through the planner.
	par := MustOpen(Config{Workers: 4})
	seedBig(t, par, 256)
	res, err := par.Select("t", func(r table.Row) bool { return r[1].AsInt() >= 0 }, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 256 {
		t.Fatalf("large select returned %d rows, want 256", len(res.Rows))
	}
	if got := par.LastPlan.SelectAlg; got != exec.SelectLarge && got != exec.SelectSmall {
		t.Logf("planner chose %s", got)
	}
}

func TestParallelGroupAggregateFallsBackOnTightMemory(t *testing.T) {
	// 64 distinct groups concentrated in one partition: each worker's
	// budget/P share cannot hold the worst-case group table, so the
	// engine must fall back to the serial operator (whose full budget
	// suffices) instead of failing — and the fallback decision is made
	// up front from public sizes, never mid-scan.
	run := func(parallelism int) *Result {
		db := MustOpen(Config{ObliviousMemory: 2048, Workers: parallelism})
		vals := make([]int64, 256)
		for i := 0; i < 64; i++ {
			vals[i] = int64(i) // partition 0 holds every distinct value
		}
		seedFlat(t, db, vals)
		res, err := db.GroupAggregate("t", nil,
			func(r table.Row) table.Value { return r[1] },
			[]AggregateSpec{{Kind: exec.AggCount}}, nil)
		if err != nil {
			t.Fatalf("Workers=%d: %v", parallelism, err)
		}
		return res
	}
	serial := run(1)
	par := run(4) // 2048/4 = 512 < 4*maxGroups(=256 blocks)*... forces fallback
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("fallback result differs: %d vs %d groups", len(par.Rows), len(serial.Rows))
	}
}

func TestParallelJoinFallsBackOnWideBuildRecords(t *testing.T) {
	// Build-side records wider than a worker's budget share: the
	// parallel hash join cannot hold even one build row per worker and
	// must fall back to the serial join rather than erroring.
	db := MustOpen(Config{ObliviousMemory: 2048, Workers: 4})
	wide := table.MustSchema(
		table.Column{Name: "pk", Kind: table.KindInt},
		table.Column{Name: "pad", Kind: table.KindString, Width: 900},
	)
	narrow := table.MustSchema(table.Column{Name: "fk", Kind: table.KindInt})
	if _, err := db.CreateTable("l", wide, TableOptions{Capacity: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("r", narrow, TableOptions{Capacity: 256}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Insert("l", table.Row{table.Int(int64(i)), table.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	rrows := make([]table.Row, 256)
	for i := range rrows {
		rrows[i] = table.Row{table.Int(int64(i % 8))}
	}
	if err := db.BulkLoad("r", rrows); err != nil {
		t.Fatal(err)
	}
	alg := exec.JoinHash
	res, err := db.Join("l", "r", "pk", "fk", JoinOptions{Force: &alg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 128 { // pk 0..3 each matches 32 foreign rows
		t.Fatalf("join returned %d rows, want 128", len(res.Rows))
	}
}

// TestParallelWorkersWithinParentBudget: an index's Ring ORAM holds a
// standing reservation on the parent enclave, so the partition workers'
// budgets must come out of what is left — together with the parent's
// reservations they may never exceed the parent's budget.
func TestParallelWorkersWithinParentBudget(t *testing.T) {
	wts := []*trace.Tracer{trace.New(), trace.New(), trace.New(), trace.New()}
	db := MustOpen(Config{ObliviousMemory: 4 << 20, Workers: 4, WorkerTracers: wts, RowsPerBlock: 1})
	if _, err := db.CreateTable("users", usersSchema(), TableOptions{
		Kind: KindBoth, KeyColumn: "uid", Capacity: 4096,
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 1000)
	for i := range rows {
		rows[i] = user(int64(i), fmt.Sprintf("u%d", i), int64(20+i%50))
	}
	if err := db.BulkLoad("users", rows); err != nil {
		t.Fatal(err)
	}
	enc := db.Enclave()
	if enc.Used() == 0 {
		t.Fatal("the index holds no standing reservation")
	}
	res, err := db.Select("users", func(r table.Row) bool { return r[2].AsInt() == 30 }, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("select returned %d rows, want 20", len(res.Rows))
	}
	if len(wts[0].Events()) == 0 {
		t.Fatal("the select did not run partitioned")
	}
	sum := 0
	for _, w := range db.workers {
		sum += w.Budget()
	}
	if sum+enc.Used() > enc.Budget() {
		t.Fatalf("workers hold %d B beside the parent's %d B reserved: %d > budget %d",
			sum, enc.Used(), sum+enc.Used(), enc.Budget())
	}
}
