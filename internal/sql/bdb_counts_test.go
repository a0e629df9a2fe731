package sql

import (
	"maps"
	"testing"

	"oblidb/internal/bdb"
	"oblidb/internal/core"
	"oblidb/internal/trace"
)

// TestBDBPublicCounts pins the untrusted accesses per region of Q1-Q3 on
// flat tables 1/200 of paper scale with 1 MiB of oblivious memory. Both
// selections fit the enclave buffer, so each reads its base table once:
// the planner's statistics come from Small's own pass. Q2 runs no select
// and keeps its counts.
func TestBDBPublicCounts(t *testing.T) {
	tr := trace.New()
	db, err := core.Open(core.Config{Seed: 1, ObliviousMemory: 1 << 20, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := bdb.Load(db, bdb.Scaled(0.005, 1), bdb.LoadOptions{RankingsKind: core.KindFlat}); err != nil {
		t.Fatal(err)
	}
	blocks := func(name string) uint64 {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(tab.Flat().NumBlocks())
	}
	r, u := blocks("rankings"), blocks("uservisits")
	want := []map[string]uint64{
		{"rankings.flat": r, "tmp.select": 2},
		{"uservisits.flat": u, "tmp.group": 2},
		{"rankings.flat": r, "uservisits.flat": u, "tmp.select": 2, "tmp.join": 2, "tmp.group": 2},
	}
	x := New(db)
	for i, q := range bdbQueries {
		tr.Reset()
		p, err := x.PrepareOneShot(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Exec(nil); err != nil {
			t.Fatalf("Q%d: %v", i+1, err)
		}
		if got := trace.NormalizedRegionCounts(tr); !maps.Equal(got, want[i]) {
			t.Errorf("Q%d accesses per region = %v, want %v", i+1, got, want[i])
		}
	}
}
