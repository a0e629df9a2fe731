package planner

import (
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func statsTable(t *testing.T, e *enclave.Enclave, vals []int64) *storage.Flat {
	t.Helper()
	s := table.MustSchema(table.Column{Name: "v", Kind: table.KindInt})
	f, err := storage.NewFlat(e, "t", s, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := f.InsertFast(table.Row{table.Int(v)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func predEq(v int64) table.Pred {
	return func(r table.Row) bool { return r[0].AsInt() == v }
}

func TestScanStats(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	f := statsTable(t, e, []int64{0, 1, 1, 1, 0, 0})
	st, err := ScanStats(exec.FromFlat(f), predEq(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matching != 3 || !st.Contiguous || st.Start != 1 || st.InputBlocks != 6 {
		t.Fatalf("stats = %+v", st)
	}

	f2 := statsTable(t, e, []int64{1, 0, 1, 0, 1, 0})
	st2, _ := ScanStats(exec.FromFlat(f2), predEq(1))
	if st2.Matching != 3 || st2.Contiguous {
		t.Fatalf("scattered stats = %+v", st2)
	}

	st3, _ := ScanStats(exec.FromFlat(f2), predEq(99))
	if st3.Matching != 0 || st3.Contiguous || st3.Start != -1 {
		t.Fatalf("empty stats = %+v", st3)
	}
}

func TestScanStatsTraceOblivious(t *testing.T) {
	run := func(vals []int64) *trace.Tracer {
		tr := trace.New()
		e := enclave.MustNew(enclave.Config{Tracer: tr})
		f := statsTable(t, e, vals)
		tr.Reset()
		if _, err := ScanStats(exec.FromFlat(f), predEq(1)); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run([]int64{1, 1, 1, 1, 0, 0, 0, 0})
	b := run([]int64{0, 0, 0, 0, 2, 2, 2, 2})
	if d := trace.Diff(a, b); d != "" {
		t.Fatalf("stats scan trace depends on data: %s", d)
	}
}

func TestChooseSelectBigMemory(t *testing.T) {
	// With the whole output fitting one enclave buffer, Small's single
	// pass (N+R accesses) beats everything.
	e := enclave.MustNew(enclave.Config{}) // 20 MB
	const rec = 100
	for _, st := range []SelectStats{
		{InputBlocks: 1000, Matching: 50},
		{InputBlocks: 1000, Matching: 50, Contiguous: true},
		{InputBlocks: 1000, Matching: 950},
		{InputBlocks: 1000, Matching: 0},
	} {
		if got := ChooseSelect(e, rec, st, Config{}); got != exec.SelectSmall {
			t.Errorf("%+v: chose %s, want Small", st, got)
		}
	}
}

// TestChooseSelectSmallWhenFits pins what the engine's fused pass relies
// on when it stops after Small's first pass: whenever the matches fit a
// buffer of B ≥ 1 rows, no plan is cheaper than Small.
func TestChooseSelectSmallWhenFits(t *testing.T) {
	const rec = 100
	for _, bufRows := range []int{1, 3, 50, 1000, 20000} {
		e := enclave.MustNew(enclave.Config{ObliviousMemory: bufRows*rec + rec/3})
		for _, blocks := range []int{1, 16, 190} {
			for _, rpb := range []int{1, 8, 95} {
				n := blocks * rpb
				for _, m := range []int{0, 1, bufRows / 2, bufRows, n} {
					if m > bufRows || m > n {
						continue
					}
					for _, cfg := range []Config{{}, {DisableContinuous: true}, {LargeFraction: 0.01}, {DisableContinuous: true, LargeFraction: 0.01}} {
						for _, contiguous := range []bool{false, true} {
							st := SelectStats{InputBlocks: blocks, InputRows: n, RowsPerBlock: rpb, Matching: m, Contiguous: contiguous && m > 0}
							if got := ChooseSelect(e, rec, st, cfg); got != exec.SelectSmall {
								t.Errorf("B=%d %+v %+v: chose %s, want Small", bufRows, st, cfg, got)
							}
						}
					}
				}
			}
		}
	}
}

func TestChooseSelectPaperPattern(t *testing.T) {
	// With a buffer near 1.5% of the table, the Figure 13 pattern
	// emerges: Small for small scattered outputs, Continuous for runs,
	// Large for almost-everything outputs.
	const rec = 100
	e := enclave.MustNew(enclave.Config{ObliviousMemory: 15 * rec}) // 15-row buffer vs 1000-row table
	cases := []struct {
		name string
		st   SelectStats
		cfg  Config
		want exec.SelectAlgorithm
	}{
		{"5% scattered", SelectStats{InputBlocks: 1000, Matching: 50}, Config{}, exec.SelectSmall},
		{"5% contiguous", SelectStats{InputBlocks: 1000, Matching: 50, Contiguous: true}, Config{}, exec.SelectContinuous},
		{"5% contiguous, disabled", SelectStats{InputBlocks: 1000, Matching: 50, Contiguous: true}, Config{DisableContinuous: true}, exec.SelectSmall},
		{"95% scattered", SelectStats{InputBlocks: 1000, Matching: 950}, Config{}, exec.SelectLarge},
		{"95% contiguous", SelectStats{InputBlocks: 1000, Matching: 950, Contiguous: true}, Config{}, exec.SelectContinuous},
	}
	for _, c := range cases {
		if got := ChooseSelect(e, rec, c.st, c.cfg); got != c.want {
			t.Errorf("%s: chose %s, want %s", c.name, got, c.want)
		}
	}
}

func TestChooseSelectNoMemory(t *testing.T) {
	e := enclave.MustNew(enclave.Config{ObliviousMemory: 1})
	const rec = 100
	if got := ChooseSelect(e, rec, SelectStats{InputBlocks: 1000, Matching: 950}, Config{}); got != exec.SelectLarge {
		t.Errorf("95%% with no memory chose %s, want Large", got)
	}
	if got := ChooseSelect(e, rec, SelectStats{InputBlocks: 1000, Matching: 200}, Config{}); got != exec.SelectHash {
		t.Errorf("20%% with no memory chose %s, want Hash", got)
	}
	if got := ChooseSelect(e, rec, SelectStats{InputBlocks: 1000, Matching: 200, Contiguous: true}, Config{}); got != exec.SelectContinuous {
		t.Errorf("contiguous with no memory chose %s, want Continuous", got)
	}
}

func TestChooseJoin(t *testing.T) {
	sizes := func(n1, n2 int) JoinSizes {
		return JoinSizes{T1Blocks: n1, T2Blocks: n2, BuildRecSize: 64, SortBlockSize: 80}
	}
	// Plenty of memory: hash join, always (§5).
	e := enclave.MustNew(enclave.Config{})
	if got := ChooseJoin(e, sizes(10000, 25000)); got != exec.JoinHash {
		t.Errorf("big memory chose %s, want Hash", got)
	}
	// Very tight memory, large tables: the sort-merge join wins because
	// the hash join's chunk count explodes.
	tight := enclave.MustNew(enclave.Config{ObliviousMemory: 25 * 64})
	if got := ChooseJoin(tight, sizes(10000, 25000)); got != exec.JoinOpaque {
		t.Errorf("tight memory large tables chose %s, want Opaque", got)
	}
	// Tight memory, tiny T2: hash join still cheaper.
	if got := ChooseJoin(tight, sizes(10000, 100)); got != exec.JoinHash {
		t.Errorf("tiny T2 chose %s, want Hash", got)
	}
	// Zero oblivious memory: only 0-OM can sort.
	zero := enclave.NewZeroOblivious(nil)
	if got := ChooseJoin(zero, sizes(10000, 25000)); got != exec.JoinZeroOM {
		t.Errorf("zero memory chose %s, want 0-OM", got)
	}
}

func TestChooseParallelism(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	// Plenty of blocks and memory: take the whole pool.
	if p := ChooseParallelism(e, 4096, 64, 8); p != 8 {
		t.Fatalf("large table chose P=%d, want 8", p)
	}
	// Tiny table: not worth splitting.
	if p := ChooseParallelism(e, 16, 64, 8); p != 1 {
		t.Fatalf("tiny table chose P=%d, want 1", p)
	}
	// Partition floor: 96 blocks support at most 3 partitions.
	if p := ChooseParallelism(e, 96, 64, 8); p != 3 {
		t.Fatalf("96 blocks chose P=%d, want 3", p)
	}
	// Starved oblivious memory clamps the pool.
	tight := enclave.MustNew(enclave.Config{ObliviousMemory: 1})
	tight.Reserve(1)
	if p := ChooseParallelism(tight, 4096, 64, 8); p != 1 {
		t.Fatalf("memory-starved engine chose P=%d, want 1", p)
	}
}

// metaCatalog serves fixed table metadata.
type metaCatalog map[string]plan.TableMeta

func (c metaCatalog) TableMeta(name string) (plan.TableMeta, bool) {
	m, ok := c[name]
	return m, ok
}

// TestParallelismWritesNothing pins the read-side walk: it returns the
// largest P that Annotate writes, leaves the shared plan untouched, and
// counts only operators that partition (a Sort's fused scan does not).
func TestParallelismWritesNothing(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	cat := metaCatalog{"t": {Blocks: 4096, Rows: 4096, RowsPerBlock: 1, RecordSize: 64, HasFlat: true}}
	agg := &plan.Filter{Input: &plan.Scan{Table: "t"}}
	sorted := &plan.Filter{Input: &plan.Scan{Table: "t"}}
	for _, tc := range []struct {
		root   plan.Node
		filter *plan.Filter
		want   int
	}{
		{&plan.Aggregate{Input: agg}, agg, 8},
		{&plan.Collect{Input: &plan.Sort{Input: sorted}}, sorted, 1},
	} {
		if p := Parallelism(tc.root, cat, e, Config{}, 8); p != tc.want {
			t.Fatalf("%T: Parallelism = %d, want %d", tc.root, p, tc.want)
		}
		if tc.filter.Choice != (plan.Choice{}) {
			t.Fatalf("%T: Parallelism wrote %+v into the plan", tc.root, tc.filter.Choice)
		}
		Annotate(tc.root, cat, e, Config{}, 8)
		if got := max(1, tc.filter.Parallelism); got != tc.want {
			t.Fatalf("%T: Annotate wrote P=%d, Parallelism said %d", tc.root, got, tc.want)
		}
	}
}
