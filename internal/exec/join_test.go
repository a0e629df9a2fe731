package exec

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func primarySchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "pk", Kind: table.KindInt},
		table.Column{Name: "name", Kind: table.KindString, Width: 10},
	)
}

func foreignSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "fk", Kind: table.KindInt},
		table.Column{Name: "amount", Kind: table.KindInt},
	)
}

// buildJoinTables creates a primary table with keys 0..nPrimary-1 and a
// foreign table whose row j references key fks[j].
func buildJoinTables(t *testing.T, e *enclave.Enclave, nPrimary int, fks []int64) (*storage.Flat, *storage.Flat) {
	t.Helper()
	p, err := storage.NewFlat(e, "primary", primarySchema(), max(1, nPrimary))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPrimary; i++ {
		if err := p.InsertFast(table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("n%d", i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	f, err := storage.NewFlat(e, "foreign", foreignSchema(), max(1, len(fks)))
	if err != nil {
		t.Fatal(err)
	}
	for j, fk := range fks {
		if err := f.InsertFast(table.Row{table.Int(fk), table.Int(int64(100 + j))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return p, f
}

// joinPairs extracts sorted (pk, amount) pairs from a join output.
func joinPairs(t *testing.T, out *storage.Flat) [][2]int64 {
	t.Helper()
	rows, err := out.Rows()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int64, len(rows))
	for i, r := range rows {
		pairs[i] = [2]int64{r[0].AsInt(), r[3].AsInt()}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

var allJoinAlgs = []JoinAlgorithm{JoinHash, JoinOpaque, JoinZeroOM}

func TestJoinAllAlgorithmsAgree(t *testing.T) {
	fks := []int64{0, 2, 2, 5, 9, 9, 9, 3, 777} // 777 matches nothing
	var want [][2]int64
	for j, fk := range fks {
		if fk < 10 {
			want = append(want, [2]int64{fk, int64(100 + j)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	for _, alg := range allJoinAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			e := enclave.MustNew(enclave.Config{})
			p, f := buildJoinTables(t, e, 10, fks)
			out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, alg, JoinOptions{}, "out")
			if err != nil {
				t.Fatal(err)
			}
			got := joinPairs(t, out)
			if len(got) != len(want) {
				t.Fatalf("%s: %d pairs, want %d: %v", alg, len(got), len(want), got)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s pair %d: %v, want %v", alg, i, got[i], want[i])
				}
			}
		})
	}
}

func TestJoinEmptyForeign(t *testing.T) {
	for _, alg := range allJoinAlgs {
		e := enclave.MustNew(enclave.Config{})
		p, f := buildJoinTables(t, e, 5, nil)
		out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, alg, JoinOptions{}, "out")
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if out.NumRows() != 0 {
			t.Fatalf("%s: joined %d rows from empty foreign table", alg, out.NumRows())
		}
	}
}

func TestJoinStringKeys(t *testing.T) {
	// BDB Q3 joins on URLs; exercise string-keyed joins on all variants.
	s1 := table.MustSchema(
		table.Column{Name: "url", Kind: table.KindString, Width: 20},
		table.Column{Name: "rank", Kind: table.KindInt},
	)
	s2 := table.MustSchema(
		table.Column{Name: "dest", Kind: table.KindString, Width: 20},
		table.Column{Name: "rev", Kind: table.KindInt},
	)
	for _, alg := range allJoinAlgs {
		e := enclave.MustNew(enclave.Config{})
		p, _ := storage.NewFlat(e, "p", s1, 4)
		for i := 0; i < 4; i++ {
			_ = p.InsertFast(table.Row{table.Str(fmt.Sprintf("url%d", i)), table.Int(int64(i * 10))}, nil)
		}
		f, _ := storage.NewFlat(e, "f", s2, 6)
		for _, d := range []string{"url1", "url3", "url1", "urlX", "url0", "url3"} {
			_ = f.InsertFast(table.Row{table.Str(d), table.Int(7)}, nil)
		}
		out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, alg, JoinOptions{}, "out")
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if out.NumRows() != 5 {
			t.Fatalf("%s: %d matches, want 5", alg, out.NumRows())
		}
	}
}

func TestHashJoinChunking(t *testing.T) {
	// Starve oblivious memory so the build side needs several chunks; the
	// output structure grows to chunks×|T2| (§4.3) but results stay right.
	e := enclave.MustNew(enclave.Config{ObliviousMemory: 3 * primarySchema().RecordSize()})
	fks := []int64{1, 5, 9, 9, 0}
	p, f := buildJoinTables(t, e, 10, fks)
	out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, JoinHash, JoinOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 {
		t.Fatalf("chunked hash join found %d, want 5", out.NumRows())
	}
	// ceil(10/3)=4 chunks × 5 foreign rows.
	if out.Capacity() != 20 {
		t.Fatalf("output structure %d slots, want 20", out.Capacity())
	}
}

func TestJoinOutputStructureSizes(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	p, f := buildJoinTables(t, e, 6, []int64{0, 1, 2})
	// Plenty of memory: hash join uses one chunk → |T2| slots.
	out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, JoinHash, JoinOptions{}, "h")
	if err != nil {
		t.Fatal(err)
	}
	if out.Capacity() != 3 {
		t.Fatalf("hash join output %d slots, want 3", out.Capacity())
	}
	// Sort-merge joins output NextPow2(|T1|+|T2|) slots.
	out, err = Join(e, FromFlat(p), FromFlat(f), 0, 0, JoinZeroOM, JoinOptions{}, "z")
	if err != nil {
		t.Fatal(err)
	}
	if out.Capacity() != NextPow2(9) {
		t.Fatalf("0-OM join output %d slots, want %d", out.Capacity(), NextPow2(9))
	}
}

// TestJoinTraceObliviousness: fixed table sizes, different contents and
// match patterns → identical traces, for every algorithm.
func TestJoinTraceObliviousness(t *testing.T) {
	run := func(alg JoinAlgorithm, fks []int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		p, f := buildJoinTables(t, e, 8, fks)
		tr.Reset()
		if _, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, alg, JoinOptions{}, "out"); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, alg := range allJoinAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			a := run(alg, []int64{0, 0, 0, 0, 0})      // everything matches one key
			b := run(alg, []int64{99, 98, 97, 96, 95}) // nothing matches
			if d := trace.Diff(a, b); d != "" {
				t.Fatalf("%s join trace depends on data: %s", alg, d)
			}
		})
	}
}

func TestJoinColumnValidation(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	p, f := buildJoinTables(t, e, 2, []int64{0})
	if _, err := Join(e, FromFlat(p), FromFlat(f), 5, 0, JoinHash, JoinOptions{}, "out"); err == nil {
		t.Fatal("bad join column accepted")
	}
}

func TestJoinedSchemaDedup(t *testing.T) {
	s, err := JoinedSchema(primarySchema(), primarySchema())
	if err != nil {
		t.Fatal(err)
	}
	if s.ColIndex("r_pk") < 0 || s.ColIndex("r_name") < 0 {
		t.Fatalf("duplicate columns not renamed: %s", s)
	}
}

func TestZeroOMJoinNoObliviousMemory(t *testing.T) {
	// The 0-OM join must run with a zero oblivious-memory budget.
	e := enclave.NewZeroOblivious(nil)
	p, f := buildJoinTables(t, e, 6, []int64{1, 3, 5})
	out, err := Join(e, FromFlat(p), FromFlat(f), 0, 0, JoinZeroOM, JoinOptions{}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("0-OM join under zero memory: %d rows, want 3", out.NumRows())
	}
}

// TestJoinKeyMatchesFNV pins joinKey's inlined FNV-64a to hash/fnv: the
// sort-merge joins order by this key, so it must stay bit-identical.
func TestJoinKeyMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "http://url000000042.com", "héllo, 世界", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := joinKey(table.Str(s)), int64(h.Sum64()); got != want {
			t.Errorf("joinKey(%q) = %d, hash/fnv gives %d", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { joinKey(table.Str("http://url000000042.com")) }); n != 0 {
		t.Errorf("joinKey allocates %v times per call", n)
	}
}

// TestHashJoinProbeZeroAllocs pins the hash join's per-row probe: key
// lookup, decoding the build row out of the arena and composing the
// joined row all reuse scratch.
func TestHashJoinProbeZeroAllocs(t *testing.T) {
	s1 := table.MustSchema(
		table.Column{Name: "url", Kind: table.KindString, Width: 24},
		table.Column{Name: "rank", Kind: table.KindInt},
	)
	s2 := table.MustSchema(
		table.Column{Name: "dest", Kind: table.KindString, Width: 24},
		table.Column{Name: "rev", Kind: table.KindFloat},
	)
	h := newHashTable(s1, s2, 0, 0, 4)
	for i := 0; i < 4; i++ {
		if err := h.add(i, table.Row{table.Str(fmt.Sprintf("url%d", i)), table.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	probe := table.Row{table.Str("url2"), table.Float(1.5)}
	joined, err := h.probe(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 4 || joined[0].AsString() != "url2" || joined[1].AsInt() != 2 || joined[3].AsFloat() != 1.5 {
		t.Fatalf("joined row %v", joined)
	}
	if miss, _ := h.probe(table.Row{table.Str("urlX"), table.Float(0)}); miss != nil {
		t.Fatalf("probe miss returned %v", miss)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := h.probe(probe); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("probe allocates %v times per row", n)
	}
}
