package core

import (
	"fmt"
	"testing"

	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/table"
)

func usersSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "uid", Kind: table.KindInt},
		table.Column{Name: "name", Kind: table.KindString, Width: 16},
		table.Column{Name: "age", Kind: table.KindInt},
	)
}

func user(uid int64, name string, age int64) table.Row {
	return table.Row{table.Int(uid), table.Str(name), table.Int(age)}
}

// seedUsers creates a users table of the given kind with n rows.
func seedUsers(t *testing.T, db *DB, kind StorageKind, n int) *Table {
	t.Helper()
	tab, err := db.CreateTable("users", usersSchema(), TableOptions{
		Kind: kind, KeyColumn: "uid", Capacity: n + 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("users", user(int64(i), fmt.Sprintf("u%d", i), int64(20+i%50))); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

var allKinds = []StorageKind{KindFlat, KindIndexed, KindBoth}

func TestCreateTableValidation(t *testing.T) {
	db := MustOpen(Config{})
	if _, err := db.CreateTable("t", usersSchema(), TableOptions{Kind: KindIndexed}); err == nil {
		t.Error("indexed table without key column accepted")
	}
	if _, err := db.CreateTable("t", usersSchema(), TableOptions{Kind: KindIndexed, KeyColumn: "nope"}); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := db.CreateTable("t", usersSchema(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", usersSchema(), TableOptions{}); err == nil {
		t.Error("duplicate (case-insensitive) table accepted")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
}

func TestInsertSelectAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := MustOpen(Config{})
			seedUsers(t, db, kind, 30)
			res, err := db.Select("users", func(r table.Row) bool { return r[2].AsInt() >= 40 }, SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 0; i < 30; i++ {
				if 20+i%50 >= 40 {
					want++
				}
			}
			if len(res.Rows) != want {
				t.Fatalf("%s: %d rows, want %d", kind, len(res.Rows), want)
			}
		})
	}
}

func TestSelectWithKeyRangeUsesIndex(t *testing.T) {
	// Index-only tables have no flat fallback: keyed reads always route
	// through the ORAM index.
	db := MustOpen(Config{})
	seedUsers(t, db, KindIndexed, 50)
	res, err := db.Select("users", nil, SelectOptions{KeyRange: &KeyRange{Lo: 10, Hi: 19}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("indexed: range select returned %d rows, want 10", len(res.Rows))
	}
	if !db.LastPlan.UsedIndex {
		t.Fatal("indexed: planner did not use the index")
	}

	// A small KindBoth table is cheaper to scan flat than to pay the
	// ORAM's per-operation factor: the planner's costed choice falls back
	// to the flat representation, with the key range folded into the
	// predicate so the result is identical.
	db = MustOpen(Config{})
	seedUsers(t, db, KindBoth, 50)
	res, err = db.Select("users", nil, SelectOptions{KeyRange: &KeyRange{Lo: 10, Hi: 19}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("both: range select returned %d rows, want 10", len(res.Rows))
	}
	if db.LastPlan.UsedIndex {
		t.Fatal("both: small table should be served by the cheaper flat scan")
	}
}

func TestAccessMethodFlipsAtScale(t *testing.T) {
	// At one record per block a moderately sized table already costs more
	// to scan flat than to probe through the ORAM index, flipping the
	// planner's §5 access-method choice to the indexed path.
	db := MustOpen(Config{RowsPerBlock: 1})
	if _, err := db.CreateTable("users", usersSchema(), TableOptions{
		Kind: KindBoth, KeyColumn: "uid", Capacity: 4096,
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 600)
	for i := range rows {
		rows[i] = user(int64(i), fmt.Sprintf("u%d", i), int64(20+i%50))
	}
	if err := db.BulkLoad("users", rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Select("users", nil, SelectOptions{KeyRange: Point(123)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsString() != "u123" {
		t.Fatalf("point query returned %v", res.Rows)
	}
	if !db.LastPlan.UsedIndex {
		t.Fatal("large one-record-per-block table should flip to the index")
	}
}

// TestIndexRecordPacking pins the index's record-block geometry. By
// default the index packs node-sized record blocks (indexed's R = 8, not
// the flat table's ~4 KiB): the ORAM has one block size, so the record
// block sizes every tree hop and padding dummy of a lookup. An explicit
// RowsPerBlock packs both representations alike.
func TestIndexRecordPacking(t *testing.T) {
	kv := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 32},
	)
	wide := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "body", Kind: table.KindString, Width: 1000},
	)
	index := func(cfg Config, s *table.Schema) *Table {
		t.Helper()
		tab, err := MustOpen(cfg).CreateTable("t", s, TableOptions{Kind: KindBoth, KeyColumn: "k", Capacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}

	def := index(Config{}, kv)
	if r := def.Index().RowsPerBlock(); r != 8 {
		t.Errorf("default index R = %d, want 8", r)
	}
	if b := def.Index().ORAM().BlockSize(); b != 345 {
		t.Errorf("default index ORAM block = %d bytes, want 345", b)
	}
	if r := def.Flat().RowsPerBlock(); r != 95 {
		t.Errorf("default flat R = %d, want 95", r)
	}
	for _, r := range []int{1, 64} {
		if got := index(Config{RowsPerBlock: r}, kv).Index().RowsPerBlock(); got != r {
			t.Errorf("RowsPerBlock %d: index R = %d", r, got)
		}
	}
	if b := index(Config{}, wide).Index().ORAM().BlockSize(); b > 4097 {
		t.Errorf("wide-row index ORAM block = %d bytes, want ≤ 4097", b)
	}
}

func TestSelectPointQuery(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindBoth, 40)
	res, err := db.Select("users", nil, SelectOptions{KeyRange: Point(7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsString() != "u7" {
		t.Fatalf("point query returned %v", res.Rows)
	}
}

func TestSelectProjection(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindFlat, 10)
	res, err := db.Select("users", nil, SelectOptions{Projection: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "name" || len(res.Rows[0]) != 1 {
		t.Fatalf("projection result: cols=%v", res.Cols)
	}
	if _, err := db.Select("users", nil, SelectOptions{Projection: []string{"ghost"}}); err == nil {
		t.Fatal("projection of unknown column accepted")
	}
}

func TestForceAlgorithm(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindFlat, 20)
	alg := exec.SelectHash
	_, err := db.Select("users", func(r table.Row) bool { return r[0].AsInt() < 5 }, SelectOptions{Force: &alg})
	if err != nil {
		t.Fatal(err)
	}
	if db.LastPlan.SelectAlg != exec.SelectHash {
		t.Fatalf("forced Hash, planner reports %s", db.LastPlan.SelectAlg)
	}
}

func TestAggregateFused(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindFlat, 25)
	res, err := db.Aggregate("users",
		func(r table.Row) bool { return r[0].AsInt() < 10 },
		[]AggregateSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Column: "age"}, {Kind: exec.AggAvg, Column: "age"}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("COUNT = %v", res.Rows[0][0])
	}
	wantSum := 0.0
	for i := 0; i < 10; i++ {
		wantSum += float64(20 + i%50)
	}
	if res.Rows[0][1].AsFloat() != wantSum {
		t.Fatalf("SUM = %v, want %v", res.Rows[0][1], wantSum)
	}
	if res.Cols[0] != "COUNT(*)" || res.Cols[1] != "SUM(age)" {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestAggregateOverKeyRange(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindBoth, 50)
	res, err := db.Aggregate("users", nil, []AggregateSpec{{Kind: exec.AggCount}}, &KeyRange{Lo: 0, Hi: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 25 {
		t.Fatalf("range COUNT = %v", res.Rows[0][0])
	}
}

func TestGroupAggregate(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindFlat, 30)
	res, err := db.GroupAggregate("users", nil,
		func(r table.Row) table.Value { return table.Int(r[0].AsInt() % 3) },
		[]AggregateSpec{{Kind: exec.AggCount}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d groups, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].AsInt() != 10 {
			t.Fatalf("group %v has count %v, want 10", r[0], r[1])
		}
	}
}

func TestJoinWithFiltersAndPlanner(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindFlat, 10)
	ordersSchema := table.MustSchema(
		table.Column{Name: "ouid", Kind: table.KindInt},
		table.Column{Name: "total", Kind: table.KindInt},
	)
	if _, err := db.CreateTable("orders", ordersSchema, TableOptions{Capacity: 32}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("orders", table.Row{table.Int(int64(i % 10)), table.Int(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Join("users", "orders", "uid", "ouid", JoinOptions{
		FilterRight: func(r table.Row) bool { return r[1].AsInt() >= 100 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Orders with total>=100: i in 10..19 → 10 orders, all matching users.
	if len(res.Rows) != 10 {
		t.Fatalf("join returned %d rows, want 10", len(res.Rows))
	}
	// Joined schema: users cols + orders cols.
	if len(res.Cols) != 5 {
		t.Fatalf("joined cols = %v", res.Cols)
	}
}

func TestJoinForcedAlgorithms(t *testing.T) {
	for _, alg := range []exec.JoinAlgorithm{exec.JoinHash, exec.JoinOpaque, exec.JoinZeroOM} {
		db := MustOpen(Config{})
		seedUsers(t, db, KindFlat, 8)
		oSchema := table.MustSchema(table.Column{Name: "ouid", Kind: table.KindInt})
		if _, err := db.CreateTable("orders", oSchema, TableOptions{Capacity: 8}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			_ = db.Insert("orders", table.Row{table.Int(int64(i))})
		}
		a := alg
		res, err := db.Join("users", "orders", "uid", "ouid", JoinOptions{Force: &a})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Rows) != 6 {
			t.Fatalf("%s: %d rows, want 6", alg, len(res.Rows))
		}
	}
}

func TestUpdateAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := MustOpen(Config{})
			seedUsers(t, db, kind, 20)
			n, err := db.Update("users",
				func(r table.Row) bool { return r[0].AsInt() < 5 },
				func(r table.Row) table.Row { r[2] = table.Int(99); return r },
				nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != 5 {
				t.Fatalf("updated %d, want 5", n)
			}
			res, err := db.Select("users", func(r table.Row) bool { return r[2].AsInt() == 99 }, SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 5 {
				t.Fatalf("%d rows updated in storage, want 5", len(res.Rows))
			}
		})
	}
}

func TestDeleteAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			db := MustOpen(Config{})
			tab := seedUsers(t, db, kind, 20)
			n, err := db.Delete("users", func(r table.Row) bool { return r[0].AsInt()%2 == 0 }, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != 10 {
				t.Fatalf("deleted %d, want 10", n)
			}
			if tab.NumRows() != 10 {
				t.Fatalf("NumRows = %d, want 10", tab.NumRows())
			}
			res, _ := db.Select("users", nil, SelectOptions{})
			if len(res.Rows) != 10 {
				t.Fatalf("%d rows remain, want 10", len(res.Rows))
			}
		})
	}
}

func TestDeleteByKeyRange(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindBoth, 20)
	n, err := db.Delete("users", nil, &KeyRange{Lo: 5, Hi: 9})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("deleted %d, want 5", n)
	}
	res, _ := db.Select("users", nil, SelectOptions{})
	if len(res.Rows) != 15 {
		t.Fatalf("%d rows remain, want 15", len(res.Rows))
	}
}

func TestUpdateKeyColumnOnIndex(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindIndexed, 10)
	n, err := db.Update("users",
		func(r table.Row) bool { return r[0].AsInt() == 3 },
		func(r table.Row) table.Row { r[0] = table.Int(300); return r },
		nil)
	if err != nil || n != 1 {
		t.Fatalf("key update: n=%d err=%v", n, err)
	}
	res, err := db.Select("users", nil, SelectOptions{KeyRange: Point(300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("moved key not found: %v", res.Rows)
	}
	res, _ = db.Select("users", nil, SelectOptions{KeyRange: Point(3)})
	if len(res.Rows) != 0 {
		t.Fatal("old key still present")
	}
}

func TestFlatAutoExpand(t *testing.T) {
	db := MustOpen(Config{})
	if _, err := db.CreateTable("small", usersSchema(), TableOptions{Capacity: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("small", user(int64(i), "x", 1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	tab, _ := db.Table("small")
	if tab.NumRows() != 20 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
}

func TestPaddingMode(t *testing.T) {
	db := MustOpen(Config{Padding: PaddingConfig{Enabled: true, PadRows: 16, PadGroups: 16}})
	seedUsers(t, db, KindFlat, 30)
	tab, _ := db.Table("users")
	tmp, err := db.selectTable(db.serialCtx, tab, func(r table.Row) bool { return r[0].AsInt() < 7 }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Output structure padded: 5 slots per position × PadRows positions,
	// rounded up to whole sealed blocks at the engine's packing factor.
	r := tmp.flat.RowsPerBlock()
	want := (16*5 + r - 1) / r * r
	if tmp.flat.Capacity() != want {
		t.Fatalf("padded select capacity %d, want %d", tmp.flat.Capacity(), want)
	}
	res, _ := db.collect(db.serialCtx, tmp)
	if len(res.Rows) != 7 {
		t.Fatalf("padded select returned %d real rows, want 7", len(res.Rows))
	}
	// Group padding.
	g, err := db.groupAggregateTable(db.serialCtx, tab, nil,
		func(r table.Row) table.Value { return table.Int(r[0].AsInt() % 4) },
		[]plan.AggSpec{{Kind: exec.AggCount}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gr := g.flat.RowsPerBlock()
	gwant := (16 + gr - 1) / gr * gr
	if g.flat.Capacity() != gwant {
		t.Fatalf("padded groups capacity %d, want %d", g.flat.Capacity(), gwant)
	}
	// Exceeding the pad bound must fail loudly, not leak.
	if _, err := db.selectTable(db.serialCtx, tab, nil, nil, nil); err == nil {
		t.Fatal("select larger than pad bound accepted")
	}
}

func TestPaddingModeRequiresPadRows(t *testing.T) {
	if _, err := Open(Config{Padding: PaddingConfig{Enabled: true}}); err == nil {
		t.Fatal("padding mode without PadRows accepted")
	}
}

func TestDropTable(t *testing.T) {
	db := MustOpen(Config{})
	seedUsers(t, db, KindBoth, 5)
	if err := db.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("users"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if len(db.Tables()) != 0 {
		t.Fatal("table list not empty")
	}
}

func TestIndexOnlyCollectRejected(t *testing.T) {
	db := MustOpen(Config{})
	tab := seedUsers(t, db, KindIndexed, 5)
	if _, err := db.collect(db.serialCtx, tab); err == nil {
		t.Fatal("collect of index-only table accepted")
	}
	// But selects work via the linear raw scan.
	res, err := db.Select("users", nil, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("raw-scan select returned %d rows", len(res.Rows))
	}
}
