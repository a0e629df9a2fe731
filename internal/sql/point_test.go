package sql

import (
	"fmt"
	"strings"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/oram"
	"oblidb/internal/table"
)

// kvPointTable builds the served point_read workload's table on a
// default engine: 20 000 rows bulk-loaded into a flat+index table of
// capacity 60 000.
func kvPointTable(tb testing.TB) (*core.DB, *Executor) {
	tb.Helper()
	const n = 20000
	db := core.MustOpen(core.Config{Seed: 1})
	s := table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 32},
	)
	if _, err := db.CreateTable("kv", s, core.TableOptions{Kind: core.KindBoth, KeyColumn: "k", Capacity: 3 * n}); err != nil {
		tb.Fatal(err)
	}
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("p%d-v0", i))}
	}
	if err := db.BulkLoad("kv", rows); err != nil {
		tb.Fatal(err)
	}
	return db, New(db)
}

// TestKVPointReadPlansIndex pins the point_read geometry's plan: at
// node-sized index blocks the ring keeps 15 levels, 7 of them in the
// tree-top cache, so a point read is priced at 8 · 5 uncached accesses
// per ORAM operation over h+2 = 8 operations, well below the flat scan.
func TestKVPointReadPlansIndex(t *testing.T) {
	db, x := kvPointTable(t)
	tab, err := db.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if l := tab.Index().ORAM().(*oram.Ring).Levels(); l != 15 {
		t.Errorf("kv index ring has %d levels, want 15", l)
	}
	got := explainLines(t, x, "SELECT * FROM kv WHERE k = 7")
	if !strings.Contains(got, "IndexRange index≈320 flat≈632") {
		t.Fatalf("point read plan drifted:\n%s", got)
	}
}

// BenchmarkIndexPointSelect runs a literal point SELECT through
// PrepareOneShot + Exec against the point_read table, reporting the
// sealed blocks opened and sealed and the bytes opened per statement
// alongside time and allocations.
func BenchmarkIndexPointSelect(b *testing.B) {
	db, x := kvPointTable(b)
	run := func(i int) {
		p, err := x.PrepareOneShot(fmt.Sprintf("SELECT * FROM kv WHERE k = %d", i*7919%20000))
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Exec(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("point read returned %d rows", len(res.Rows))
		}
	}
	run(0)
	b.ReportAllocs()
	before := db.IOStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	after := db.IOStats()
	per := func(d uint64) float64 { return float64(d) / float64(b.N) }
	b.ReportMetric(per(after.BlocksOpened-before.BlocksOpened), "blocks_opened/op")
	b.ReportMetric(per(after.BlocksSealed-before.BlocksSealed), "blocks_sealed/op")
	b.ReportMetric(per(after.BytesOpened-before.BytesOpened), "B_opened/op")
}
