// Partition-parallel oblivious operators. ObliDB's operators do work
// determined only by public table sizes, which makes them embarrassingly
// partitionable: split the input's block array into P equal padded
// partitions (storage.Partitioned), run the same oblivious algorithm per
// partition on a pool of worker enclaves, and combine the per-partition
// outputs with a combine step that is itself data-independent — a padded
// concatenation, plus an oblivious compaction (a bitonic sort moving
// dummies last) when the output must shrink to |R|.
//
// Leakage: P and the partition sizes are functions of the public table
// size and configuration, so the adversary learns nothing beyond P
// itself. Each worker's access stream is deterministic given the public
// parameters; what the OS scheduler may reorder is only the interleaving
// BETWEEN workers, which carries no data (trace.MultisetFingerprint is
// the canonical form the tests assert on).
//
// Per-partition output bounds are public too: a partition of S blocks
// holds at most min(S, |R|) of the |R| matching rows, so every partition
// is padded to that bound whatever its true match count.
package exec

import (
	"errors"
	"fmt"
	"sync"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// runWorkers fans fn out over one goroutine per worker and joins them.
func runWorkers(n int, fn func(p int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn(p)
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ErrSerialFallback reports that a parallel variant cannot run within
// the per-worker oblivious memory budget; callers run the serial
// operator instead. The decision depends only on public sizes, so the
// fallback itself leaks nothing new.
var ErrSerialFallback = errors.New("exec: parallel variant needs more oblivious memory; run serial")

// ParallelizableSelect reports whether a SELECT algorithm has a
// partition-parallel variant. Continuous stays serial: partition
// boundaries break the contiguity its single pass depends on.
func ParallelizableSelect(alg SelectAlgorithm) bool {
	return alg != SelectContinuous
}

// ParallelSelect runs one oblivious SELECT partitioned across the worker
// pool. Small parallelizes its scan phase (matches buffered privately in
// enclave memory, emitted serially). The other algorithms run the serial
// operator per partition with output bound min(S, |R|): Large outputs
// concatenate (the serial Large output keeps dummies in place anyway),
// Naive and Hash outputs compact obliviously down to |R|.
func ParallelSelect(e *enclave.Enclave, workers []*enclave.Enclave, in *storage.Flat, pred table.Pred, alg SelectAlgorithm, opts SelectOptions, outName string) (*storage.Flat, error) {
	if !ParallelizableSelect(alg) {
		return nil, fmt.Errorf("exec: select algorithm %s has no parallel variant", alg)
	}
	if err := checkOutSize(opts.OutSize); err != nil {
		return nil, err
	}
	pt, err := storage.NewPartitioned(in, workers)
	if err != nil {
		return nil, err
	}
	if alg == SelectSmall {
		return parallelSelectSmall(e, workers, pt, pred, opts, outName)
	}
	if alg == SelectLarge {
		return parallelSelectLarge(e, workers, pt, pred, opts, outName)
	}
	partOpts := opts
	partOpts.OutSize = min(pt.PartRows(), opts.OutSize)

	parts := make([]*storage.Flat, len(workers))
	err = runWorkers(len(workers), func(p int) error {
		out, err := Select(workers[p], pt.Part(p), pred, alg, partOpts, fmt.Sprintf("%s.p%d", outName, p))
		parts[p] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	schema := in.Schema()
	return compactParts(e, parts, schema, opts.OutSize, outName)
}

// parallelSelectLarge is the partitioned Large select: one shared
// output sized P·S blocks, with worker p running the serial copy+clear
// passes over its partition directly into output block range
// [p·S, (p+1)·S) through a RangeWriter — no combine pass at all. Padding
// blocks write dummies, so the output shape is a function of (|T|, R, P)
// alone.
func parallelSelectLarge(e *enclave.Enclave, workers []*enclave.Enclave, pt *storage.Partitioned, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := pt.Source().Schema()
	rpb := pt.Source().RowsPerBlock()
	partRows := pt.PartRows()
	out, err := storage.NewFlatGeom(e, outName, schema, max(1, partRows*len(workers)), rpb)
	if err != nil {
		return nil, err
	}
	kept := make([]int, len(workers))
	err = runWorkers(len(workers), func(p int) error {
		view := pt.Part(p)
		w, err := out.RangeWriter(workers[p], p, p*partRows, partRows)
		if err != nil {
			return err
		}
		// Copy pass: one read per partition block, one sealed write per
		// output block.
		err = ForEachRow(view, func(_ int, row table.Row, used bool) error {
			if used {
				return w.Append(row, true)
			}
			return w.Append(nil, false)
		})
		if err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		// Clearing pass: uniform input read + output read-modify-write
		// per block, keeping only predicate matches (pred evaluated on
		// the re-read input row, as in the serial operator).
		inBuf := view.Schema().NewBlockBuf(rpb)
		for b := 0; b < view.Blocks(); b++ {
			if err := view.ReadBlockInto(b, inBuf); err != nil {
				return err
			}
			err := w.RMWBlock(b, func(plain []byte) error {
				for j := 0; j < rpb; j++ {
					row, used := inBuf.Row(j)
					if used && pred(row) {
						kept[p]++
						continue
					}
					if err := schema.EncodeDummyAt(plain, j); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, k := range kept {
		total += k
	}
	out.BumpRows(total)
	return out, nil
}

// parallelSelectSmall is the partitioned Small select: each worker scans
// its partition once, holding its matches — at most min(S, |R|) rows, a
// public bound it reserves up front — in oblivious memory, and a serial
// emit phase writes the |R| output rows in partition order. Per-worker
// traces are the partition read pass; the emit trace is |R| writes.
// Wall-clock is N/P reads + |R| writes versus the serial N + |R|.
func parallelSelectSmall(e *enclave.Enclave, workers []*enclave.Enclave, pt *storage.Partitioned, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := pt.Source().Schema()
	recSize := schema.RecordSize()
	bound := min(pt.PartRows(), opts.OutSize)
	reserve := bound * recSize
	for _, w := range workers {
		if reserve > w.Available() {
			return nil, ErrSerialFallback
		}
	}
	for p, w := range workers {
		if err := w.Reserve(reserve); err != nil {
			for _, prev := range workers[:p] {
				prev.Release(reserve)
			}
			return nil, ErrSerialFallback
		}
	}
	defer func() {
		for _, w := range workers {
			w.Release(reserve)
		}
	}()

	bufs := make([][]table.Row, len(workers))
	err := runWorkers(len(workers), func(p int) error {
		view := pt.Part(p)
		buf := make([]table.Row, 0, bound)
		err := ForEachRow(view, func(_ int, row table.Row, used bool) error {
			if used && pred(row) {
				if len(buf) >= bound {
					return fmt.Errorf("exec: partition %d found more than %d rows, planner promised %d total", p, bound, opts.OutSize)
				}
				buf = append(buf, row.Clone())
			}
			return nil
		})
		bufs[p] = buf
		return err
	})
	if err != nil {
		return nil, err
	}

	out, err := storage.NewFlatGeom(e, outName, schema, max(1, opts.OutSize), pt.Source().RowsPerBlock())
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	written := 0
	for _, buf := range bufs {
		for _, row := range buf {
			if written >= opts.OutSize {
				return nil, fmt.Errorf("exec: parallel small select found more rows than the promised %d", opts.OutSize)
			}
			if err := w.Append(row, true); err != nil {
				return nil, err
			}
			written++
		}
	}
	if written < opts.OutSize {
		return nil, fmt.Errorf("exec: parallel small select found %d rows, planner promised %d", written, opts.OutSize)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(written)
	return out, nil
}

// ParallelAggregate computes aggregates with one scan worker per
// partition, merging the partial states inside the enclave. There is no
// combine trace at all — aggregation state never leaves oblivious
// memory — so the speedup is the full scan parallelism.
func ParallelAggregate(workers []*enclave.Enclave, in *storage.Flat, pred table.Pred, specs []AggSpec) ([]table.Value, error) {
	pt, err := storage.NewPartitioned(in, workers)
	if err != nil {
		return nil, err
	}
	partials := make([][]aggState, len(workers))
	err = runWorkers(len(workers), func(p int) error {
		states, err := aggScan(pt.Part(p), pred, specs)
		partials[p] = states
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := partials[0]
	for _, states := range partials[1:] {
		for j := range merged {
			if err := merged[j].merge(&states[j]); err != nil {
				return nil, err
			}
		}
	}
	return aggResults(merged), nil
}

// ParallelGroupAggregate runs the grouped-aggregation scan one worker
// per partition, merges the in-enclave bucket tables, and emits once.
// Like the serial operator it leaks only the number of groups (or the
// padded bound).
func ParallelGroupAggregate(e *enclave.Enclave, workers []*enclave.Enclave, in *storage.Flat, pred table.Pred, groupBy GroupBy, specs []AggSpec, opts GroupAggregateOptions, outName string) (*storage.Flat, error) {
	if groupBy == nil {
		return nil, fmt.Errorf("exec: grouped aggregation needs a group key")
	}
	maxGroups := opts.MaxGroups
	if maxGroups <= 0 {
		maxGroups = in.Capacity()
	}
	// Pre-flight on public sizes only: every worker must be able to hold
	// the WORST-case group table (4 bytes per group, as the serial
	// operator charges) in its budget share. Checking up front — rather
	// than letting a worker exhaust its share mid-scan — keeps the
	// fallback decision data-independent; a mid-scan abort would reveal
	// per-partition group skew, which is finer than the conceded
	// total-group-count leakage.
	for _, w := range workers {
		if 4*maxGroups > w.Available() {
			return nil, ErrSerialFallback
		}
	}
	pt, err := storage.NewPartitioned(in, workers)
	if err != nil {
		return nil, err
	}
	partials := make([]map[string]*group, len(workers))
	reserves := make([]int, len(workers))
	defer func() {
		for p, r := range reserves {
			workers[p].Release(r)
		}
	}()
	err = runWorkers(len(workers), func(p int) error {
		groups, reserved, err := groupScan(workers[p], pt.Part(p), pred, groupBy, specs, maxGroups)
		partials[p], reserves[p] = groups, reserved
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := partials[0]
	for _, m := range partials[1:] {
		if err := mergeGroups(merged, m, specs, maxGroups); err != nil {
			return nil, err
		}
	}
	// Charge the merged bucket table to the parent's oblivious memory,
	// mirroring the serial operator's 4 bytes per group.
	reserve := 4 * len(merged)
	if err := e.Reserve(reserve); err != nil {
		return nil, fmt.Errorf("exec: merged group table exceeded oblivious memory: %w", err)
	}
	defer e.Release(reserve)
	return emitGroups(e, merged, specs, in.Schema(), opts, in.RowsPerBlock(), outName)
}

// ParallelHashJoin partitions the foreign (probe) side across the pool
// and broadcasts the primary (build) side: worker p streams all of t1
// through its own enclave to build hash chunks and probes its partition
// of t2, exactly the serial §4.3 hash join at 1/P the probe width,
// writing one output block — joined or dummy — per comparison directly
// into its disjoint range of the shared output. The output keeps the
// serial operator's chunks×probe slot structure (padded to partition
// boundaries), so no combine pass and no leakage about match counts.
func ParallelHashJoin(e *enclave.Enclave, workers []*enclave.Enclave, t1, t2 *storage.Flat, col1, col2 int, outSchema *table.Schema, outName string) (*storage.Flat, error) {
	pt2, err := storage.NewPartitioned(t2, workers)
	if err != nil {
		return nil, err
	}
	// Chunk sizing mirrors the serial hash join, using the smallest
	// per-worker budget so every worker has the same (public) chunk
	// count and output shape.
	rec1 := t1.Schema().RecordSize()
	avail := workers[0].Available()
	for _, w := range workers[1:] {
		if a := w.Available(); a < avail {
			avail = a
		}
	}
	chunkRows := avail / rec1
	if chunkRows < 1 {
		// A worker's budget share cannot hold even one build row; the
		// serial operator, chunking against the full parent budget,
		// may still succeed. Public-size decision.
		return nil, ErrSerialFallback
	}
	if chunkRows > t1.Capacity() {
		chunkRows = t1.Capacity()
	}
	chunks := (t1.Capacity() + chunkRows - 1) / chunkRows
	partRows := pt2.PartRows()
	per := chunks * partRows // a multiple of R: ranges stay block-aligned
	out, err := storage.NewFlatGeom(e, outName, outSchema, max(1, per*len(workers)), t2.RowsPerBlock())
	if err != nil {
		return nil, err
	}
	matches := make([]int, len(workers))
	reserve := chunkRows * rec1
	err = runWorkers(len(workers), func(p int) error {
		if err := workers[p].Reserve(reserve); err != nil {
			return err
		}
		defer workers[p].Release(reserve)
		bcast := NewRowReader(storage.FullView(t1, workers[p], p))
		view := pt2.Part(p)
		w, err := out.RangeWriter(workers[p], p, p*per, per)
		if err != nil {
			return err
		}
		h := newHashTable(t1.Schema(), view.Schema(), col1, col2, chunkRows)
		m, err := hashJoinChunks(h, bcast, t1.Capacity(), false, view, w)
		if err != nil {
			return err
		}
		matches[p] = m
		return w.Flush()
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, m := range matches {
		total += m
	}
	out.BumpRows(total)
	return out, nil
}

// compactParts is the oblivious merge for unsorted padded outputs: copy
// every partition block into one power-of-two scratch array, bitonic-
// sort it by the used flag (real rows first, dummies last — record
// encoding puts the flag in byte 0), and copy the first outSize slots
// into the result. The sort's compare-exchange sequence is a fixed
// function of the (public) padded size, so the compaction reveals
// nothing about which partitions held how many matches.
func compactParts(e *enclave.Enclave, parts []*storage.Flat, schema *table.Schema, outSize int, outName string) (*storage.Flat, error) {
	recSize := schema.RecordSize()
	total := 0
	for _, p := range parts {
		total += p.Capacity()
	}
	if outSize > total {
		return nil, fmt.Errorf("exec: compaction bound %d exceeds %d padded slots", outSize, total)
	}
	n := NextPow2(total)
	st, err := e.NewStore(outName+".compact", n, recSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, recSize)
	pos := 0
	for _, p := range parts {
		err := ForEachRow(FromFlat(p), func(_ int, row table.Row, used bool) error {
			if used {
				if err := schema.EncodeRecord(buf, row); err != nil {
					return err
				}
			} else if err := schema.EncodeDummy(buf); err != nil {
				return err
			}
			if err := st.Write(pos, buf); err != nil {
				return err
			}
			pos++
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dummy := make([]byte, recSize)
	if err := schema.EncodeDummy(dummy); err != nil {
		return nil, err
	}
	for ; pos < n; pos++ {
		if err := st.Write(pos, dummy); err != nil {
			return nil, err
		}
	}

	// Sort real rows (flag byte 1) ahead of dummies (0); accelerate with
	// in-enclave chunks when oblivious memory allows, like the joins.
	chunk := FloorPow2(e.Available() / recSize)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > n {
		chunk = n
	}
	reserve := chunk * recSize
	if chunk > 1 {
		if err := e.Reserve(reserve); err != nil {
			return nil, err
		}
		defer e.Release(reserve)
	}
	less := func(a, b []byte) bool { return a[0] > b[0] }
	if err := ObliviousSort(st, n, chunk, less); err != nil {
		return nil, err
	}

	rpb := 1
	if len(parts) > 0 {
		rpb = parts[0].RowsPerBlock()
	}
	out, err := storage.NewFlatGeom(e, outName, schema, max(1, outSize), rpb)
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	kept := 0
	for i := 0; i < outSize; i++ {
		plain, err := st.ReadInto(i, buf)
		if err != nil {
			return nil, err
		}
		row, used, err := schema.DecodeRecord(plain)
		if err != nil {
			return nil, err
		}
		if used {
			kept++
		}
		if err := w.Append(row, used); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(kept)
	return out, nil
}
