package oblidb

// One testing.B benchmark per table/figure of the paper's evaluation,
// each delegating to the experiment runner in internal/bench at a small
// scale so `go test -bench=.` completes in minutes. For figure-shaped
// reports at 10% or full paper scale, run cmd/oblidb-bench.

import (
	"io"
	"testing"

	"oblidb/internal/bench"
	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/workload"
)

// benchScale keeps testing.B iterations tractable; cmd/oblidb-bench
// defaults to 0.1 and supports -full.
const benchScale = 0.004

func runFigure(b *testing.B, f func(bench.Options) error) {
	b.Helper()
	o := bench.Options{Scale: benchScale, Out: io.Discard, Seed: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StorageAsymptotics regenerates Figure 2: operation scaling
// of the flat, indexed, and combined storage methods.
func BenchmarkFig2StorageAsymptotics(b *testing.B) { runFigure(b, bench.RunFig2) }

// BenchmarkFig3Operators regenerates Figure 3: one timing per oblivious
// physical operator.
func BenchmarkFig3Operators(b *testing.B) { runFigure(b, bench.RunFig3) }

// BenchmarkFig6Generate regenerates Figure 6: the synthetic Big Data
// Benchmark datasets.
func BenchmarkFig6Generate(b *testing.B) { runFigure(b, bench.RunFig6) }

// BenchmarkFig7BigDataBenchmark regenerates Figure 7: Q1–Q3 across
// Opaque, ObliDB without and with indexes, and the plain executor.
func BenchmarkFig7BigDataBenchmark(b *testing.B) { runFigure(b, bench.RunFig7) }

// BenchmarkFig8ObliviousMemorySweep regenerates Figure 8: Q3 runtime as
// the oblivious-memory budget varies.
func BenchmarkFig8ObliviousMemorySweep(b *testing.B) { runFigure(b, bench.RunFig8) }

// BenchmarkFig9PointOpsVsHIRB regenerates Figure 9: point operation
// latency of HIRB+vORAM, ObliDB's index, and a plain B+ tree.
func BenchmarkFig9PointOpsVsHIRB(b *testing.B) { runFigure(b, bench.RunFig9) }

// BenchmarkFig10FlatVsIndex regenerates Figure 10: flat vs indexed
// operators across retrieved fractions, plus mutations.
func BenchmarkFig10FlatVsIndex(b *testing.B) { runFigure(b, bench.RunFig10) }

// BenchmarkFig11PointQueries regenerates Figure 11: indexed point-query
// latency against table size.
func BenchmarkFig11PointQueries(b *testing.B) { runFigure(b, bench.RunFig11) }

// BenchmarkFig12TableTypes regenerates Figure 12: the L1–L5 workload
// mixes per storage kind.
func BenchmarkFig12TableTypes(b *testing.B) { runFigure(b, bench.RunFig12) }

// BenchmarkFig13PlannerChoice regenerates Figure 13: every applicable
// SELECT algorithm against the planner's pick.
func BenchmarkFig13PlannerChoice(b *testing.B) { runFigure(b, bench.RunFig13) }

// BenchmarkFig14Joins regenerates Figure 14: the join-algorithm grid over
// table sizes and oblivious-memory budgets.
func BenchmarkFig14Joins(b *testing.B) { runFigure(b, bench.RunFig14) }

// BenchmarkPaddingMode regenerates the §7.2 padding-mode measurement.
func BenchmarkPaddingMode(b *testing.B) { runFigure(b, bench.RunPadding) }

// BenchmarkAblations measures DESIGN.md's called-out design choices
// against their alternatives (recursive ORAM, sort variants, insert
// variants, bulk loading, journaling).
func BenchmarkAblations(b *testing.B) { runFigure(b, bench.RunAblations) }

// BenchmarkParallelSpeedup measures the partition-parallel operators'
// wall-clock against worker-pool sizes 1/2/4/8 (DESIGN.md §9).
func BenchmarkParallelSpeedup(b *testing.B) { runFigure(b, bench.RunParallel) }

// BenchmarkPacking measures block packing (DESIGN.md §12): scan, select,
// and oblivious-insert wall time at R ∈ {1, 4, 16, default}, with
// speedups over the paper's one-record-per-block geometry.
func BenchmarkPacking(b *testing.B) { runFigure(b, bench.RunPacking) }

// benchScanAt times a full-table scan of an n-row workload table at
// packing factor r — the read pass under every aggregate, stats scan,
// and select. Compare BenchmarkFlatScanR1 against
// BenchmarkFlatScanPackedDefault for the per-pass speedup (≥4× at the
// default ~4 KiB blocks on typical hardware).
func benchScanAt(b *testing.B, r int) {
	b.Helper()
	e := enclave.MustNew(enclave.Config{Seed: 11})
	const n = 4096
	f, err := storage.NewFlatGeom(e, "bench.scan", workload.Schema(), n, r)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := f.InsertFast(workload.NewRow(int64(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Scan(func(int, table.Row, bool) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * workload.Schema().RecordSize()))
}

// BenchmarkFlatScanR1 scans at the paper's one-record-per-block layout.
func BenchmarkFlatScanR1(b *testing.B) { benchScanAt(b, 1) }

// BenchmarkFlatScanPacked16 scans at a fixed 16-record packing.
func BenchmarkFlatScanPacked16(b *testing.B) { benchScanAt(b, 16) }

// BenchmarkFlatScanPackedDefault scans at the engine's ~4 KiB default.
func BenchmarkFlatScanPackedDefault(b *testing.B) {
	benchScanAt(b, storage.DefaultRowsPerBlock(workload.Schema()))
}
