package sql

import (
	"testing"

	"oblidb/internal/bdb"
	"oblidb/internal/core"
)

// bdbQueries are the Big Data Benchmark's Q1-Q3 as SQL, the statements
// the served bdb_scan workload sends.
var bdbQueries = []string{bdb.Q1SQL, bdb.Q2SQL, bdb.Q3SQL}

// BenchmarkBDBQueries runs Q1-Q3 round-robin through PrepareOneShot +
// Exec on 5 % of paper-scale flat tables with 1 MiB of oblivious memory,
// so the two tables are 2-4x the enclave budget. One op is one
// statement; allocs/op is the in-enclave row-path allocation rate.
func BenchmarkBDBQueries(b *testing.B) {
	db, err := core.Open(core.Config{Seed: 1, ObliviousMemory: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := bdb.Load(db, bdb.Scaled(0.05, 1), bdb.LoadOptions{RankingsKind: core.KindFlat}); err != nil {
		b.Fatal(err)
	}
	x := New(db)
	run := func(i int) {
		p, err := x.PrepareOneShot(bdbQueries[i%len(bdbQueries)])
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Exec(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("Q%d returned no rows", i%len(bdbQueries)+1)
		}
	}
	for i := range bdbQueries {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}
