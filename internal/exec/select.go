package exec

import (
	"errors"
	"fmt"
	"hash/fnv"

	"oblidb/internal/enclave"
	"oblidb/internal/oram"
	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// SelectAlgorithm names the oblivious SELECT variants of §4.1.
type SelectAlgorithm int

const (
	// SelectNaive is the ORAM-per-row baseline the paper includes only for
	// comparison: O(N log N), 4|R| bytes of oblivious memory.
	SelectNaive SelectAlgorithm = iota
	// SelectSmall makes one pass per enclave-buffer of output: O(N²/S).
	SelectSmall
	// SelectLarge copies the table and clears unselected rows: O(N), for
	// outputs that are almost the whole table.
	SelectLarge
	// SelectContinuous handles results forming one contiguous segment in a
	// single pass: O(N). Choosing it leaks contiguity (§4.1) and it can be
	// disabled.
	SelectContinuous
	// SelectHash writes each row (or a dummy) to hashed slots of the
	// output: O(N·C), the general case.
	SelectHash
)

// String names the algorithm as the paper does.
func (a SelectAlgorithm) String() string {
	switch a {
	case SelectNaive:
		return "Naive"
	case SelectSmall:
		return "Small"
	case SelectLarge:
		return "Large"
	case SelectContinuous:
		return "Continuous"
	case SelectHash:
		return "Hash"
	}
	return fmt.Sprintf("SelectAlgorithm(%d)", int(a))
}

// hashSlotsPerPosition is the fixed chain depth of the Hash select:
// "double hashing and ... a fixed-depth list of 5 slots for each position
// in R ... for each block in T, there will be 10 accesses to R" (§4.1).
const hashSlotsPerPosition = 5

// ErrHashOverflow reports that the Hash select could not place a selected
// row within its 10 candidate slots. Azar et al.'s two-choice bound makes
// this astronomically unlikely at the paper's parameters; callers may
// retry with a different salt.
var ErrHashOverflow = errors.New("exec: hash select overflow; retry with a new salt")

// SelectOptions carries the per-query parameters of a SELECT.
type SelectOptions struct {
	// OutSize is |R|, the number of matching rows, supplied by the query
	// planner's stats scan (§5) and already part of the permitted leakage.
	OutSize int
	// Salt perturbs the Hash algorithm's hash functions on retry.
	Salt uint64
}

// Select runs one oblivious SELECT algorithm over in, materializing the
// matching rows into a fresh flat table. The trace depends only on
// (algorithm, |T|, R, |R|, oblivious memory) — never on pred's outcomes.
func Select(e *enclave.Enclave, in Input, pred table.Pred, alg SelectAlgorithm, opts SelectOptions, outName string) (*storage.Flat, error) {
	if err := checkOutSize(opts.OutSize); err != nil {
		return nil, err
	}
	switch alg {
	case SelectNaive:
		return selectNaive(e, in, pred, opts, outName)
	case SelectSmall:
		return selectSmall(e, in, pred, opts, outName)
	case SelectLarge:
		return selectLarge(e, in, pred, opts, outName)
	case SelectContinuous:
		return selectContinuous(e, in, pred, opts, outName)
	case SelectHash:
		return selectHash(e, in, pred, opts, outName)
	}
	return nil, fmt.Errorf("exec: unknown select algorithm %d", alg)
}

// selectNaive is the baseline: one ORAM operation per input row — a write
// of the row if selected, a dummy read otherwise — then an oblivious copy
// of the ORAM contents into flat form (§4.1 "Naive").
func selectNaive(e *enclave.Enclave, in Input, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := in.Schema()
	capacity := max(1, opts.OutSize)
	o, err := oram.New(e, outName+".naive-oram", capacity, schema.RecordSize(), oram.Options{})
	if err != nil {
		return nil, err
	}
	defer o.Close()
	buf := make([]byte, schema.RecordSize())
	next := 0
	err = ForEachRow(in, func(i int, row table.Row, used bool) error {
		if used && pred(row) && next < capacity {
			if err := schema.EncodeRecord(buf, row); err != nil {
				return err
			}
			if _, err := o.Access(oram.OpWrite, next, buf); err != nil {
				return err
			}
			next++
			return nil
		}
		return o.DummyAccess()
	})
	if err != nil {
		return nil, err
	}
	out, err := storage.NewFlatGeom(e, outName, schema, capacity, outGeom(in))
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	for i := 0; i < capacity; i++ {
		data, err := o.Access(oram.OpRead, i, nil)
		if err != nil {
			return nil, err
		}
		row, used, err := schema.DecodeRecord(data)
		if err != nil {
			return nil, err
		}
		if err := w.Append(row, used); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(opts.OutSize)
	return out, nil
}

// selectSmall scans the table once per enclave-buffer of output rows
// (§4.1 "Small", Figure 4A). The buffer draws on whatever oblivious
// memory is available; less memory means more passes, never wrong results.
// Each pass costs one read per sealed block; the output is written
// sequentially, one seal per output block.
func selectSmall(e *enclave.Enclave, in Input, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := in.Schema()
	recSize := schema.RecordSize()
	bufRows := e.Available() / recSize
	if bufRows < 1 {
		bufRows = 1
	}
	if bufRows > max(1, opts.OutSize) {
		bufRows = max(1, opts.OutSize)
	}
	reserve := bufRows * recSize
	if err := e.Reserve(reserve); err != nil {
		return nil, err
	}
	defer e.Release(reserve)

	out, err := storage.NewFlatGeom(e, outName, schema, max(1, opts.OutSize), outGeom(in))
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	buffer := make([]table.Row, 0, bufRows)
	scanBuf := in.Schema().NewBlockBuf(in.RowsPerBlock())
	written := 0
	for written < opts.OutSize || written == 0 {
		matchOrdinal := 0
		buffer = buffer[:0]
		err := ForEachRowInto(in, scanBuf, func(_ int, row table.Row, used bool) error {
			if used && pred(row) {
				// Store only this pass's window of matches.
				if matchOrdinal >= written && len(buffer) < bufRows {
					buffer = append(buffer, row.Clone())
				}
				matchOrdinal++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, r := range buffer {
			if err := w.Append(r, true); err != nil {
				return nil, err
			}
			written++
		}
		if written >= opts.OutSize {
			break
		}
		if len(buffer) == 0 {
			return nil, fmt.Errorf("exec: small select found %d rows, planner promised %d", written, opts.OutSize)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(written)
	return out, nil
}

// SelectSmallOnePass runs Small's first pass before |R| is known, so the
// planner's statistics and Small's buffer fill come from one read per
// sealed block. It reserves a buffer of every whole row the budget
// allows — a function of the budget alone — calls observe(i) for each
// matching row slot i in slot order, and clones matches while they fit.
// If all matched rows fit a buffer of at least one row, it writes them to
// an outName table of max(1, |R|) slots, exactly as Small's output, and
// returns it. Otherwise it drops the buffer, releases the reservation and
// returns a nil table: the caller plans from the statistics observe saw.
// Whether the output is written depends only on |R| and the budget.
func SelectSmallOnePass(e *enclave.Enclave, in Input, pred table.Pred, observe func(i int), outName string) (*storage.Flat, error) {
	schema := in.Schema()
	recSize := schema.RecordSize()
	bufRows := e.Available() / recSize
	reserve := bufRows * recSize
	if err := e.Reserve(reserve); err != nil {
		return nil, err
	}
	defer e.Release(reserve)

	var buffer []table.Row
	matched := 0
	err := ForEachRow(in, func(i int, row table.Row, used bool) error {
		if !used || !pred(row) {
			return nil
		}
		observe(i)
		matched++
		if matched <= bufRows {
			buffer = append(buffer, row.Clone())
		} else {
			buffer = nil
		}
		return nil
	})
	if err != nil || bufRows < 1 || matched > bufRows {
		return nil, err
	}
	out, err := storage.NewFlatGeom(e, outName, schema, max(1, matched), outGeom(in))
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	for _, r := range buffer {
		if err := w.Append(r, true); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(matched)
	return out, nil
}

// selectLarge copies the input and clears unselected rows in one more pass
// (§4.1 "Large", Figure 4B). No oblivious memory. Both passes run
// block-at-a-time: the copy is one read + one write per block, the
// clearing pass one input read plus one output read-modify-write per
// block.
func selectLarge(e *enclave.Enclave, in Input, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := in.Schema()
	rpb := outGeom(in)
	out, err := storage.NewFlatGeom(e, outName, schema, max(1, RowSlots(in)), rpb)
	if err != nil {
		return nil, err
	}
	// Copy pass: the copy does not depend on the data copied.
	w := out.NewBlockWriter()
	err = ForEachRow(in, func(_ int, row table.Row, used bool) error {
		if used {
			return w.Append(row, true)
		}
		return w.Append(nil, false)
	})
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	// Clearing pass over the copy: read each input block and
	// read-modify-write the aligned output block, keeping matches and
	// clearing the rest. Note pred must be evaluated on the original row;
	// with a transform the output row may lack predicate columns, so the
	// input block is re-read for the decision while the output gets the
	// uniform read+write.
	inBuf := in.Schema().NewBlockBuf(in.RowsPerBlock())
	scratch := make([]byte, out.Store().BlockSize())
	kept := 0
	for b := 0; b < in.Blocks(); b++ {
		if err := in.ReadBlockInto(b, inBuf); err != nil {
			return nil, err
		}
		scratch, err = out.Store().RMW(b, scratch, func(plain []byte) error {
			for j := 0; j < in.RowsPerBlock(); j++ {
				row, used := inBuf.Row(j)
				if used && pred(row) {
					kept++
					continue // the copied record stays, re-encrypted
				}
				if err := schema.EncodeDummyAt(plain, j); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out.BumpRows(kept)
	return out, nil
}

// selectContinuous handles results forming one contiguous run: for the
// i-th input row, write (really or dummily) to output position i mod |R|
// (§4.1 "Continuous", Figure 4C). The run may start anywhere; the output
// is the run rotated by start mod |R|. No oblivious memory. Every input
// row costs one read-modify-write of the target output block — a dummy
// write re-seals the block's current contents, indistinguishable from a
// real write.
func selectContinuous(e *enclave.Enclave, in Input, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := in.Schema()
	capacity := max(1, opts.OutSize)
	out, err := storage.NewFlatGeom(e, outName, schema, capacity, outGeom(in))
	if err != nil {
		return nil, err
	}
	kept := 0
	err = ForEachRow(in, func(i int, row table.Row, used bool) error {
		j := i % capacity
		match := used && pred(row) && kept < opts.OutSize
		return out.RMWSlot(j, func(plain []byte, slot int) error {
			if match {
				kept++
				return schema.EncodeRecordAt(plain, slot, row)
			}
			return nil // dummy write: re-seal the slot's current contents
		})
	})
	if err != nil {
		return nil, err
	}
	out.BumpRows(kept)
	return out, nil
}

// selectHash writes each selected row to one of 10 hash-addressed slots of
// the output — 5 chained slots at each of two hash positions — and gives
// every input row the identical 10 read-modify-write accesses (§4.1
// "Hash", Figure 5). The hashes are over the row's position in T, not its
// contents, so access patterns carry no data. No oblivious memory.
func selectHash(e *enclave.Enclave, in Input, pred table.Pred, opts SelectOptions, outName string) (*storage.Flat, error) {
	schema := in.Schema()
	positions := max(1, opts.OutSize)
	out, err := storage.NewFlatGeom(e, outName, schema, positions*hashSlotsPerPosition, outGeom(in))
	if err != nil {
		return nil, err
	}
	kept := 0
	err = ForEachRow(in, func(i int, row table.Row, used bool) error {
		selected := used && pred(row) && kept < opts.OutSize
		placed := false
		p1 := hashPos(uint64(i), 0x9e37+opts.Salt, positions)
		p2 := hashPos(uint64(i), 0x85eb+opts.Salt, positions)
		for _, p := range [2]int{p1, p2} {
			for s := 0; s < hashSlotsPerPosition; s++ {
				slot := p*hashSlotsPerPosition + s
				err := out.RMWSlot(slot, func(plain []byte, j int) error {
					if selected && !placed && !schema.UsedAt(plain, j) {
						placed = true
						return schema.EncodeRecordAt(plain, j, row)
					}
					return nil // dummy write
				})
				if err != nil {
					return err
				}
			}
		}
		if selected {
			if !placed {
				return ErrHashOverflow
			}
			kept++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.BumpRows(kept)
	return out, nil
}

// hashPos hashes a block index (with salt) to an output position.
func hashPos(i, salt uint64, positions int) int {
	h := fnv.New64a()
	var b [16]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(i >> (8 * k))
		b[8+k] = byte(salt >> (8 * k))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(positions))
}
