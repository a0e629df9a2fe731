package core

import (
	"fmt"
	"testing"

	"oblidb/internal/exec"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// These tests check the engine's end-to-end guarantee (Appendix A): for
// fixed public parameters — table sizes, output sizes, physical plan —
// the full untrusted trace of a query is identical whatever the data and
// predicate parameters. They drive whole queries, not single operators.

// fixedKey makes two databases byte-comparable: same key → same enclave
// PRNG stream → same hash salts and store layout.
var fixedKey = make([]byte, 32)

func tracedDB(t *testing.T, tr *trace.Tracer) *DB {
	t.Helper()
	db, err := Open(Config{Tracer: tr, Key: fixedKey})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// seedFlat loads n rows with val[i] into a flat table.
func seedFlat(t *testing.T, db *DB, vals []int64) {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "val", Kind: table.KindInt},
	)
	if _, err := db.CreateTable("t", s, TableOptions{Capacity: len(vals)}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, len(vals))
	for i, v := range vals {
		rows[i] = table.Row{table.Int(int64(i)), table.Int(v)}
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSelectTraceOblivious(t *testing.T) {
	const n, k = 64, 16
	run := func(vals []int64, param int64) *trace.Tracer {
		tr := trace.New()
		db := tracedDB(t, tr)
		seedFlat(t, db, vals)
		tr.Reset()
		tab, _ := db.Table("t")
		if _, err := db.selectTable(db.serialCtx, tab, func(r table.Row) bool { return r[1].AsInt() == param }, nil, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Same |T| and |R| and (scattered) shape, different data and params.
	valsA := make([]int64, n)
	valsB := make([]int64, n)
	for i := 0; i < k; i++ {
		valsA[i*4] = 7
		valsB[i*4+1] = 9
	}
	a := run(valsA, 7)
	b := run(valsB, 9)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("end-to-end select trace depends on data: %s", d)
	}
}

func TestEndToEndAggregateTraceOblivious(t *testing.T) {
	run := func(vals []int64, threshold int64) *trace.Tracer {
		tr := trace.New()
		db := tracedDB(t, tr)
		seedFlat(t, db, vals)
		tr.Reset()
		if _, err := db.Aggregate("t",
			func(r table.Row) bool { return r[1].AsInt() > threshold },
			[]AggregateSpec{{Kind: exec.AggSum, Column: "val"}}, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run([]int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	b := run([]int64{8, 8, 8, 8, 8, 8, 8, 8}, 0)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("aggregate trace depends on data: %s", d)
	}
}

func TestEndToEndJoinTraceOblivious(t *testing.T) {
	run := func(fkBase int64) *trace.Tracer {
		tr := trace.New()
		db := tracedDB(t, tr)
		s1 := table.MustSchema(table.Column{Name: "pk", Kind: table.KindInt})
		s2 := table.MustSchema(table.Column{Name: "fk", Kind: table.KindInt})
		if _, err := db.CreateTable("l", s1, TableOptions{Capacity: 16}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("r", s2, TableOptions{Capacity: 24}); err != nil {
			t.Fatal(err)
		}
		lrows := make([]table.Row, 16)
		for i := range lrows {
			lrows[i] = table.Row{table.Int(int64(i))}
		}
		rrows := make([]table.Row, 24)
		for i := range rrows {
			rrows[i] = table.Row{table.Int(fkBase + int64(i%4))}
		}
		if err := db.BulkLoad("l", lrows); err != nil {
			t.Fatal(err)
		}
		if err := db.BulkLoad("r", rrows); err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		alg := exec.JoinZeroOM // deterministic network, fully comparable
		if _, err := db.joinTable(db.serialCtx, "l", "r", "pk", "fk", JoinOptions{Force: &alg}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(0)    // every foreign row matches
	b := run(1000) // none match
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("join trace depends on match pattern: %s", d)
	}
}

func TestEndToEndMutationTraceOblivious(t *testing.T) {
	run := func(updParam, delParam int64) *trace.Tracer {
		tr := trace.New()
		db := tracedDB(t, tr)
		seedFlat(t, db, []int64{1, 2, 3, 4, 5, 6, 7, 8})
		tr.Reset()
		if _, err := db.Update("t",
			func(r table.Row) bool { return r[1].AsInt() == updParam },
			func(r table.Row) table.Row { r[1] = table.Int(100); return r }, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("t", func(r table.Row) bool { return r[1].AsInt() == delParam }, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(1, 8)
	b := run(5, 2)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("mutation trace depends on params: %s", d)
	}
}

func TestEndToEndPaddingHidesResultSize(t *testing.T) {
	// In padding mode, queries with different |R| (below the bound) must
	// be indistinguishable — that is the mode's whole point.
	run := func(vals []int64, param int64) *trace.Tracer {
		tr := trace.New()
		db, err := Open(Config{Tracer: tr, Key: fixedKey,
			Padding: PaddingConfig{Enabled: true, PadRows: 32, PadGroups: 8}})
		if err != nil {
			t.Fatal(err)
		}
		seedFlat(t, db, vals)
		tr.Reset()
		tab, _ := db.Table("t")
		if _, err := db.selectTable(db.serialCtx, tab, func(r table.Row) bool { return r[1].AsInt() == param }, nil, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	many := make([]int64, 64)
	few := make([]int64, 64)
	for i := 0; i < 30; i++ {
		many[i] = 1 // 30 matches
	}
	few[10] = 2 // 1 match
	a := run(many, 1)
	b := run(few, 2)
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("padding mode leaks result size: %s", d)
	}
}

func TestIndexedQueryAccessCountsUniform(t *testing.T) {
	// Indexed point queries go through the Ring ORAM, which batches
	// evictions: a call's physical access count varies with its POSITION
	// in the table's access sequence (public state) but must never vary
	// with the data. The pin: two same-shape tables — same capacity, row
	// count, and seed, different contents — cost exactly the same count
	// at every position, hit or miss, whatever the keys.
	run := func(base, stride int64, keys []int64) []uint64 {
		tr := trace.New()
		tr.EnableCounts()
		db, err := Open(Config{Tracer: tr, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s := table.MustSchema(
			table.Column{Name: "id", Kind: table.KindInt},
			table.Column{Name: "val", Kind: table.KindInt},
		)
		if _, err := db.CreateTable("t", s, TableOptions{Kind: KindIndexed, KeyColumn: "id", Capacity: 256}); err != nil {
			t.Fatal(err)
		}
		rows := make([]table.Row, 200)
		for i := range rows {
			rows[i] = table.Row{table.Int(base + int64(i)*stride), table.Int(int64(i))}
		}
		if err := db.BulkLoad("t", rows); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table("t")
		counts := make([]uint64, len(keys))
		for i, key := range keys {
			before := tr.TotalCount()
			if _, _, err := tab.Index().Lookup(key); err != nil {
				t.Fatal(err)
			}
			counts[i] = tr.TotalCount() - before
		}
		return counts
	}
	// Run a: dense keys, mostly hits. Run b: sparse keys, mostly misses.
	a := run(0, 1, []int64{0, 99, 199, -5, 10000})
	b := run(1000, 3, []int64{1000, 1033, 9999, 0, -77})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lookup %d cost %d accesses on run a, %d on run b", i, a[i], b[i])
		}
	}
}

func TestTamperedTableFailsQueries(t *testing.T) {
	// End-to-end integrity: an OS-level bit flip in any block surfaces as
	// an error on the next query, never as wrong results.
	db := MustOpen(Config{})
	seedFlat(t, db, []int64{1, 2, 3, 4})
	tab, _ := db.Table("t")
	raw := tab.Flat().Store().AdversaryRawBlock(0)
	raw[len(raw)-1] ^= 0x80
	tab.Flat().Store().AdversarySetRawBlock(0, raw)
	if _, err := db.Select("t", nil, SelectOptions{}); err == nil {
		t.Fatal("query over tampered table succeeded")
	}
}

func TestRollbackFailsQueries(t *testing.T) {
	db := MustOpen(Config{})
	seedFlat(t, db, []int64{1, 2, 3, 4})
	tab, _ := db.Table("t")
	st := tab.Flat().Store()
	old := st.AdversaryRawBlock(0)
	if _, err := db.Update("t", table.All, func(r table.Row) table.Row {
		r[1] = table.Int(9)
		return r
	}, nil); err != nil {
		t.Fatal(err)
	}
	st.AdversarySetRawBlock(0, old) // roll block 0 back to its pre-update state
	if _, err := db.Select("t", nil, SelectOptions{}); err == nil {
		t.Fatal("query over rolled-back table succeeded")
	}
}

func TestManyQueriesSameTraceFingerprint(t *testing.T) {
	// Repeating the identical query must give the identical trace (the
	// engine holds no cross-query state that would change access
	// patterns, §4: "stored rows do not persist inside the enclave
	// between queries").
	tr := trace.New()
	db := tracedDB(t, tr)
	seedFlat(t, db, []int64{5, 6, 7, 8, 9, 10, 11, 12})
	var prints []string
	for i := 0; i < 3; i++ {
		tr.Reset()
		tab, _ := db.Table("t")
		if _, err := db.selectTable(db.serialCtx, tab, func(r table.Row) bool { return r[1].AsInt() >= 9 }, nil, nil); err != nil {
			t.Fatal(err)
		}
		// Canonical: each run allocates fresh temp tables, whose region
		// ids differ; patterns must not.
		prints = append(prints, fmt.Sprintf("%x", tr.CanonicalFingerprint()))
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Fatalf("identical queries produced different traces: %v", prints)
	}
}
