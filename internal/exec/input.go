// Package exec implements ObliDB's oblivious physical operators (§4):
// five SELECT algorithms, one-pass and grouped aggregation, a fused
// select+aggregate, and three join algorithms, plus the oblivious bitonic
// sorting network the sort-merge joins build on.
//
// Every operator's untrusted access pattern depends only on public sizes
// (|T| in blocks, the packing factor R, |R|, oblivious-memory budget),
// never on data or query parameters; the package tests assert this by
// trace equality.
package exec

import (
	"fmt"

	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// Input is a readable table: a fixed number of sealed blocks, each
// packing RowsPerBlock records (any of which may be unused). Operators
// iterate block-at-a-time, decoding into caller-owned scratch, so a
// full-table pass costs one untrusted access per block — not per row.
// *storage.Flat implements it directly; the engine adapts index
// range-scan results to it so every operator runs over both storage
// methods, as §4 requires.
type Input interface {
	// Schema describes the rows.
	Schema() *table.Schema
	// Blocks is the number of sealed blocks — the public size |T|.
	Blocks() int
	// RowsPerBlock is R, the (public) packing factor.
	RowsPerBlock() int
	// ReadBlockInto reads block b (one traced untrusted access) and
	// decodes its records into buf, a scratch the caller reuses.
	ReadBlockInto(b int, buf *table.BlockBuf) error
}

// RowSlots returns an input's row capacity: Blocks × RowsPerBlock.
func RowSlots(in Input) int { return in.Blocks() * in.RowsPerBlock() }

// ForEachRow streams every row slot of in, in order, through fn: one
// untrusted read per block, rows decoded into a single reused scratch.
// The row passed to fn is only valid during the call — fn must Clone
// anything it retains. row is nil when the slot is unused.
func ForEachRow(in Input, fn func(i int, row table.Row, used bool) error) error {
	return ForEachRowInto(in, in.Schema().NewBlockBuf(in.RowsPerBlock()), fn)
}

// ForEachRowInto is ForEachRow decoding through a caller-owned scratch,
// for call sites that stream the same input repeatedly (a hash join's
// per-chunk probe passes, a Small select's output passes) and should
// allocate the scratch once, not once per pass.
func ForEachRowInto(in Input, buf *table.BlockBuf, fn func(i int, row table.Row, used bool) error) error {
	r := in.RowsPerBlock()
	for b := 0; b < in.Blocks(); b++ {
		if err := in.ReadBlockInto(b, buf); err != nil {
			return err
		}
		base := b * r
		for j := 0; j < r; j++ {
			row, used := buf.Row(j)
			if err := fn(base+j, row, used); err != nil {
				return err
			}
		}
	}
	return nil
}

// RowReader reads single row slots through a one-block cache: reading
// within the cached block costs no untrusted access, so sequential or
// range reads over a packed input amortize to one access per block.
// Whether a read hits the cache depends only on the sequence of indices
// — which every oblivious operator derives from public sizes — never on
// data.
//
// Contract: the returned rows alias scratch owned by the underlying
// input (a Flat's single decrypt buffer), so a row — and the cache
// itself — is valid only until the next read of that input through ANY
// path, not just this reader. Callers interleaving other reads of the
// same table (a self-join probing the table it builds from) must
// Invalidate before trusting the cache again, and Clone any row they
// retain.
type RowReader struct {
	in  Input
	buf *table.BlockBuf
	cur int // cached block, -1 when empty
}

// NewRowReader creates a reader over in with an empty cache.
func NewRowReader(in Input) *RowReader {
	return &RowReader{in: in, buf: in.Schema().NewBlockBuf(in.RowsPerBlock()), cur: -1}
}

// Read returns row slot i. The row is valid until the next Read — or
// the next read of the underlying input through any other path.
func (r *RowReader) Read(i int) (table.Row, bool, error) {
	rp := r.in.RowsPerBlock()
	b := i / rp
	if b != r.cur {
		if err := r.in.ReadBlockInto(b, r.buf); err != nil {
			return nil, false, err
		}
		r.cur = b
	}
	row, used := r.buf.Row(i % rp)
	return row, used, nil
}

// Invalidate drops the cached block, forcing the next Read to fetch.
// Call it after the underlying input was read through another path.
// Invalidation points must depend only on public sizes (chunk
// boundaries, pass starts), like every other access decision.
func (r *RowReader) Invalidate() { r.cur = -1 }

// flatInput adapts *storage.Flat to Input.
type flatInput struct{ f *storage.Flat }

func (fi flatInput) Schema() *table.Schema { return fi.f.Schema() }
func (fi flatInput) Blocks() int           { return fi.f.NumBlocks() }
func (fi flatInput) RowsPerBlock() int     { return fi.f.RowsPerBlock() }
func (fi flatInput) ReadBlockInto(b int, buf *table.BlockBuf) error {
	return fi.f.ReadBlockInto(b, buf)
}

// FromFlat wraps a flat table as an operator input.
func FromFlat(f *storage.Flat) Input { return flatInput{f} }

// AsFlat recovers the flat table behind an input, when there is one.
// The partition-parallel operators need the table itself (to build a
// Partitioned view over its block array), not just a block reader.
func AsFlat(in Input) (*storage.Flat, bool) {
	fi, ok := in.(flatInput)
	if !ok {
		return nil, false
	}
	return fi.f, true
}

// outGeom picks an operator output's packing factor: inherit the
// input's. Geometry is public, so propagating it is a deterministic
// function of public configuration.
func outGeom(in Input) int { return in.RowsPerBlock() }

func checkOutSize(outSize int) error {
	if outSize < 0 {
		return fmt.Errorf("exec: negative output size %d", outSize)
	}
	return nil
}
