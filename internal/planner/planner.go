// Package planner implements ObliDB's query planner (§5). It chooses the
// selection and join operator variants using only information the system
// already leaks — input and output table sizes and the oblivious-memory
// budget — so planning adds no leakage beyond the final operator choice.
//
// For selections, the planner's preliminary scan reads every block once
// whatever the data: its trace is identical for all inputs of a size. It
// computes (1) the number of matching rows and (2) whether they are
// adjacent, exactly the two statistics §5 lists, and the computed output
// size is handed to the operators that pre-allocate output storage — which
// is why the paper calls this first scan "for free". For a selection
// whose matches fit the enclave buffer, it is literally free: the engine
// gathers the statistics (through StatsScan) during Small's own first
// pass and stops there, and only a selection that overflows the buffer
// goes on to ChooseSelect and a second operator pass.
//
// For joins the planner reads no data at all: §5 observes that all join
// algorithms do work determined entirely by the input sizes, so it plugs
// the sizes and the memory budget into the Figure 3 complexity
// expressions and picks the cheapest.
package planner

import (
	"math"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/table"
)

// SelectStats is what the preliminary scan learns, plus the public
// geometry the cost expressions need.
type SelectStats struct {
	// InputBlocks is |T| in sealed blocks — the unit of every untrusted
	// access, and hence of every cost expression.
	InputBlocks int
	// InputRows is the row-slot capacity, InputBlocks × RowsPerBlock.
	InputRows int
	// RowsPerBlock is the packing factor R.
	RowsPerBlock int
	// Matching is |R|, the number of rows satisfying the predicate.
	Matching int
	// Contiguous reports whether the matching rows form one contiguous
	// run of row slots.
	Contiguous bool
	// Start is the row-slot index of the first matching row (meaningful
	// when Matching > 0).
	Start int
}

// ScanStats makes the planner's preliminary pass: one read per sealed
// block, whatever the data.
func ScanStats(in exec.Input, pred table.Pred) (SelectStats, error) {
	sc := NewStatsScan(in)
	err := exec.ForEachRow(in, func(i int, row table.Row, used bool) error {
		if used && pred(row) {
			sc.Match(i)
		}
		return nil
	})
	return sc.Stats(), err
}

// StatsScan accumulates SelectStats from the matching row slots of one
// pass over an input, fed in slot order. ScanStats and the engine's fused
// Small pass (exec.SelectSmallOnePass, whose observe callback is Match)
// both build their statistics through it.
type StatsScan struct {
	st   SelectStats
	last int
}

// NewStatsScan starts the statistics of a pass over in: its public
// geometry, no matches yet.
func NewStatsScan(in exec.Input) *StatsScan {
	return &StatsScan{st: SelectStats{
		InputBlocks:  in.Blocks(),
		InputRows:    exec.RowSlots(in),
		RowsPerBlock: in.RowsPerBlock(),
		Contiguous:   true,
		Start:        -1,
	}}
}

// Match records that row slot i satisfies the predicate. Slots must
// arrive in increasing order.
func (sc *StatsScan) Match(i int) {
	if sc.st.Start < 0 {
		sc.st.Start = i
	} else if i != sc.last+1 {
		sc.st.Contiguous = false
	}
	sc.last = i
	sc.st.Matching++
}

// Stats returns the statistics of the slots matched so far.
func (sc *StatsScan) Stats() SelectStats {
	st := sc.st
	if st.Matching == 0 {
		st.Contiguous = false
	}
	return st
}

// blocksFor converts a row count to sealed blocks at the stats' packing.
func (st SelectStats) blocksFor(rows int) float64 {
	r := st.RowsPerBlock
	if r < 1 {
		r = 1
	}
	return math.Ceil(float64(rows) / float64(r))
}

// rowSlots returns the row capacity, defaulting to InputBlocks × R for
// stats built without the packed fields (R = 1 geometry).
func (st SelectStats) rowSlots() float64 {
	if st.InputRows > 0 {
		return float64(st.InputRows)
	}
	r := st.RowsPerBlock
	if r < 1 {
		r = 1
	}
	return float64(st.InputBlocks * r)
}

// Config holds the planner's precomputed thresholds (§5: "a precomputed
// set of thresholds decide when to run each operator").
type Config struct {
	// DisableContinuous turns off the Continuous algorithm, trading its
	// contiguity leakage away (§4.1); used for the Opaque comparison.
	DisableContinuous bool
	// LargeFraction is the |R|/|T| ratio above which Large applies. Zero
	// means 0.9.
	LargeFraction float64
}

func (c Config) largeFraction() float64 {
	if c.LargeFraction <= 0 {
		return 0.9
	}
	return c.LargeFraction
}

// ChooseSelect picks the selection operator for the scanned statistics by
// plugging |T|, |R|, the packing factor, and the oblivious-memory budget
// into each operator's access-count expression and taking the cheapest
// applicable one — the paper's "precomputed set of thresholds" realized
// as this implementation's exact costs, so the pick is the measured
// winner (Figure 13).
//
// Costs in untrusted *block* accesses, N=|T| in blocks, n=row slots,
// R=|R| matching rows, B=buffer rows:
//
//	Small:      ceil(R/B)·N reads + ceil(R/rpb) writes  (needs oblivious memory)
//	Large:      5N   (copy: N+N; clear: N+N+N)          (only when R ≈ n)
//	Continuous: N + 2n   (block reads in + per-row RMW of the output)
//	Hash:       N + 20n  (block reads in + 10 slot RMWs per row)
//
// Packing shifts the balance exactly as the implementation does: the
// block-sequential Small and Large get ~rpb× cheaper while the
// row-scattered Continuous and Hash keep their per-row RMW cost.
//
// Whenever the matches fit one buffer (B ≥ 1 and R ≤ B), Small costs
// at most 2N and wins outright: the engine's fused pass relies on this
// when it stops after Small's first pass without consulting ChooseSelect.
func ChooseSelect(e *enclave.Enclave, recSize int, st SelectStats, cfg Config) exec.SelectAlgorithm {
	alg, _ := chooseSelectCost(e, recSize, st, cfg)
	return alg
}

// chooseSelectCost is ChooseSelect returning the winning cost as well,
// for the optimizer pass's plan annotations.
func chooseSelectCost(e *enclave.Enclave, recSize int, st SelectStats, cfg Config) (exec.SelectAlgorithm, float64) {
	costHash := SelectCost(exec.SelectHash, e, recSize, st, cfg)
	costSmall := SelectCost(exec.SelectSmall, e, recSize, st, cfg)
	costLarge := SelectCost(exec.SelectLarge, e, recSize, st, cfg)
	costCont := SelectCost(exec.SelectContinuous, e, recSize, st, cfg)

	best, alg := costHash, exec.SelectHash
	if costLarge < best {
		best, alg = costLarge, exec.SelectLarge
	}
	if costCont < best {
		best, alg = costCont, exec.SelectContinuous
	}
	if costSmall < best {
		best, alg = costSmall, exec.SelectSmall
	}
	return alg, best
}

// SelectCost returns one algorithm's estimated untrusted access count
// for the scanned statistics (+Inf when the algorithm does not apply).
// These are the Figure-3-style expressions ChooseSelect minimizes over.
func SelectCost(alg exec.SelectAlgorithm, e *enclave.Enclave, recSize int, st SelectStats, cfg Config) float64 {
	nB := float64(st.InputBlocks)
	rows := st.rowSlots()
	switch alg {
	case exec.SelectHash:
		return nB + 20*rows
	case exec.SelectSmall:
		if recSize <= 0 {
			return math.Inf(1)
		}
		bufRows := e.Available() / recSize
		if bufRows <= 0 {
			return math.Inf(1)
		}
		passes := (st.Matching + bufRows - 1) / bufRows
		if passes < 1 {
			passes = 1
		}
		return float64(passes)*nB + st.blocksFor(st.Matching)
	case exec.SelectLarge:
		if float64(st.Matching) >= cfg.largeFraction()*rows {
			return 5 * nB
		}
		return math.Inf(1)
	case exec.SelectContinuous:
		if !cfg.DisableContinuous && st.Contiguous && st.Matching > 0 {
			return nB + 2*rows
		}
		return math.Inf(1)
	}
	return math.Inf(1)
}

// MinPartitionBlocks is the smallest partition worth a worker: below
// this, goroutine handoff and per-partition padding dominate the scan.
const MinPartitionBlocks = 32

// ChooseParallelism picks the partition count P for a parallel operator
// from the same public-size-only inputs as the rest of the planner (§5):
// the table size in blocks, the record size, the unreserved oblivious
// memory, and the worker-pool size (bounded by GOMAXPROCS at engine
// open). The choice leaks nothing beyond P itself, which — like the
// operator choice — is conceded plan leakage.
func ChooseParallelism(e *enclave.Enclave, blocks, recSize, maxWorkers int) int {
	p := maxWorkers
	if m := blocks / MinPartitionBlocks; p > m {
		p = m
	}
	// Every worker needs a useful slice of oblivious memory — enough to
	// buffer at least MinPartitionBlocks records — or the per-partition
	// operators degrade to their worst cases.
	if recSize > 0 {
		if m := e.Available() / (MinPartitionBlocks * recSize); p > m {
			p = m
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// JoinSizes carries the public inputs of join planning.
type JoinSizes struct {
	// T1Blocks and T2Blocks are the table sizes in sealed blocks (the
	// traced access unit).
	T1Blocks, T2Blocks int
	// T1Rows and T2Rows are the row-slot capacities (blocks × packing).
	// Zero means "same as blocks", i.e. the paper's R = 1 geometry.
	T1Rows, T2Rows int
	// BuildRecSize is the record size of T1 rows (the hash join's build
	// side); SortBlockSize is the combined-array element size of the
	// sort-merge joins.
	BuildRecSize, SortBlockSize int
}

func (s JoinSizes) rows() (int, int) {
	r1, r2 := s.T1Rows, s.T2Rows
	if r1 == 0 {
		r1 = s.T1Blocks
	}
	if r2 == 0 {
		r2 = s.T2Blocks
	}
	return r1, r2
}

// ChooseJoin picks the join algorithm from table sizes and the available
// oblivious memory, per §5: "If the amount of oblivious memory is large
// relative to the size of the first table, we always use the hash join.
// Otherwise, we plug in the table sizes and amount of oblivious memory
// into expressions denoting the ... runtimes ... and choose the smaller
// result." The expressions below count this implementation's untrusted
// block accesses exactly, so the planner's pick is the measured winner.
func ChooseJoin(e *enclave.Enclave, s JoinSizes) exec.JoinAlgorithm {
	alg, _ := chooseJoinCost(e, s)
	return alg
}

// chooseJoinCost is ChooseJoin returning the winning cost estimate as
// well, for the optimizer pass's plan annotations.
func chooseJoinCost(e *enclave.Enclave, s JoinSizes) (exec.JoinAlgorithm, float64) {
	avail := e.Available()
	rows1, rows2 := s.rows()
	buildRows := 0
	if s.BuildRecSize > 0 {
		buildRows = avail / s.BuildRecSize
	}
	if buildRows >= rows1 {
		// The whole build side fits: "we always use the hash join."
		return exec.JoinHash, float64(s.T1Blocks) + 3*float64(s.T2Blocks)
	}
	// Hash: read T1 once across chunks, then per chunk read T2's blocks
	// and seal one output block per packed probe group — plus sealing
	// the chunks×rows(T2)-slot output structure at allocation.
	costHash := math.Inf(1)
	if buildRows >= 1 {
		chunks := math.Ceil(float64(rows1) / float64(buildRows))
		costHash = float64(s.T1Blocks) + 3*chunks*float64(s.T2Blocks)
	}

	// Sort-merge: the combined array is record-granular (one record per
	// scratch block, whatever the input packing), so its network passes
	// cost 2n accesses over n = NextPow2(rows). A chunked sort runs
	// Σ (m - log2 C) substage passes for stages m = log2(2C)..log2(n),
	// plus one chunk pass per stage and the initial chunk pass.
	n := exec.NextPow2(rows1 + rows2)
	logN := log2i(n)
	sortPasses := func(chunk int) float64 {
		if chunk >= n {
			return 1
		}
		logC := log2i(chunk)
		passes := 1 // initial chunk sort
		for m := logC + 1; m <= logN; m++ {
			passes += m - logC // network substages j >= chunk
			if chunk > 1 {
				passes++ // in-enclave chunk merge
			}
		}
		return float64(passes)
	}
	// Building and merging: allocate + fill the combined array (reading
	// each input block once), then the merge scan allocates and writes
	// the n-slot output.
	fill := float64(4*n) + float64(s.T1Blocks+s.T2Blocks)
	costZero := fill + 2*float64(n)*sortPasses(1)
	costOpaque := math.Inf(1)
	sortChunk := 0
	if s.SortBlockSize > 0 {
		sortChunk = exec.FloorPow2(avail / s.SortBlockSize)
	}
	if sortChunk > 1 {
		costOpaque = fill + 2*float64(n)*sortPasses(sortChunk)
	}

	best, alg := costHash, exec.JoinHash
	if costOpaque < best {
		best, alg = costOpaque, exec.JoinOpaque
	}
	if costZero < best {
		best, alg = costZero, exec.JoinZeroOM
	}
	return alg, best
}

// log2i returns ceil(log2(n)) for n >= 1.
func log2i(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
