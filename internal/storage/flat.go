// Package storage implements ObliDB's flat storage method (§3.1): rows in
// a series of adjacent sealed blocks with no built-in access-pattern
// protection, so every operation that must be oblivious scans the whole
// table, giving unaffected blocks dummy writes (a re-encryption of the
// data they already hold).
//
// Unlike the paper's one-record-per-block implementation, each sealed
// block packs R records (the paper's design only fixes the *block* as the
// sealed unit). R is public geometry chosen at table creation — by
// default sized so a block holds ~4 KiB of plaintext — and every
// full-table pass costs one AEAD open and one seal per block instead of
// per row, dividing crypto, trace, and allocation cost by R. R = 1
// reproduces the paper's geometry exactly. The trusted metadata per table
// is tiny: the capacity, the used-row count, and the cursor for the
// constant-time insert variant.
package storage

import (
	"fmt"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// DefaultBlockBytes is the plaintext block size the default packing
// targets: large enough to amortize the fixed per-AEAD-call cost, small
// enough that a single-row RMW does not dominate point updates.
const DefaultBlockBytes = 4096

// DefaultRowsPerBlock returns the packing factor R that makes one block
// hold ~DefaultBlockBytes of plaintext for the schema (at least 1).
func DefaultRowsPerBlock(s *table.Schema) int {
	r := DefaultBlockBytes / s.RecordSize()
	if r < 1 {
		r = 1
	}
	return r
}

// Flat is a flat-method table: ceil(capacity/R) sealed blocks in
// untrusted memory, each packing R records.
type Flat struct {
	enc      *enclave.Enclave
	schema   *table.Schema
	store    *enclave.Store
	name     string
	rpb      int             // R, records per sealed block (public geometry)
	rows     int             // number of used records (trusted metadata)
	appendAt int             // next row slot for the constant-time insert variant
	blk      []byte          // one-block plaintext scratch (hot path, reused)
	dec      *table.BlockBuf // decode scratch for Scan (lazily allocated)
}

// NewFlat creates a flat table with the given fixed capacity in rows and
// the paper's one-record-per-block geometry (R = 1).
func NewFlat(e *enclave.Enclave, name string, schema *table.Schema, capacity int) (*Flat, error) {
	return NewFlatGeom(e, name, schema, capacity, 1)
}

// NewFlatGeom creates a flat table packing rowsPerBlock records into
// each sealed block. The row capacity is rounded up to a whole number of
// blocks; both the block count and R are public.
func NewFlatGeom(e *enclave.Enclave, name string, schema *table.Schema, capacity, rowsPerBlock int) (*Flat, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: flat table %q needs positive capacity, got %d", name, capacity)
	}
	if rowsPerBlock <= 0 {
		return nil, fmt.Errorf("storage: flat table %q needs positive rows per block, got %d", name, rowsPerBlock)
	}
	blocks := (capacity + rowsPerBlock - 1) / rowsPerBlock
	store, err := e.NewStore(name, blocks, schema.BlockSize(rowsPerBlock))
	if err != nil {
		return nil, err
	}
	return &Flat{
		enc:    e,
		schema: schema,
		store:  store,
		name:   name,
		rpb:    rowsPerBlock,
		blk:    make([]byte, schema.BlockSize(rowsPerBlock)),
	}, nil
}

// Name returns the table name.
func (f *Flat) Name() string { return f.name }

// Schema returns the table schema.
func (f *Flat) Schema() *table.Schema { return f.schema }

// Capacity returns the number of row slots (block count × R). Both
// factors are public: this is the size the adversary sees, in rows.
func (f *Flat) Capacity() int { return f.store.Len() * f.rpb }

// NumBlocks returns the number of sealed blocks — the untrusted
// structure's extent, and the unit every trace event indexes.
func (f *Flat) NumBlocks() int { return f.store.Len() }

// RowsPerBlock returns R, the packing factor.
func (f *Flat) RowsPerBlock() int { return f.rpb }

// NumRows returns the used-record count (trusted enclave metadata).
func (f *Flat) NumRows() int { return f.rows }

// Store exposes the underlying untrusted store (for adversary tests and
// operators that stream blocks directly).
func (f *Flat) Store() *enclave.Store { return f.store }

// readBlk reads block b into the table's plaintext scratch.
func (f *Flat) readBlk(b int) error {
	plain, err := f.store.ReadInto(b, f.blk)
	if err != nil {
		return err
	}
	f.blk = plain
	return nil
}

// ReadRow decrypts the block containing row slot i and decodes that
// record, returning a fresh Row the caller owns. One traced block read.
func (f *Flat) ReadRow(i int) (table.Row, bool, error) {
	if i < 0 || i >= f.Capacity() {
		return nil, false, fmt.Errorf("storage: table %q row read out of range: %d of %d", f.name, i, f.Capacity())
	}
	if err := f.readBlk(i / f.rpb); err != nil {
		return nil, false, err
	}
	return f.schema.DecodeRecordAt(f.blk, i%f.rpb)
}

// ReadBlockInto decrypts packed block b into the caller-owned scratch
// buf (which fixes R and is reused across calls, so steady-state scans
// allocate nothing per block).
func (f *Flat) ReadBlockInto(b int, buf *table.BlockBuf) error {
	if err := f.readBlk(b); err != nil {
		return err
	}
	return f.schema.DecodeBlockInto(buf, f.blk)
}

// SetRow writes a row (or dummy) to row slot i, adjusting nothing else.
// At R = 1 this is a single block write; at R > 1 it is a
// read-modify-write of the containing block — one read plus one write,
// never R row operations. Row accounting stays with the caller
// (BumpRows), as before.
func (f *Flat) SetRow(i int, r table.Row, used bool) error {
	if i < 0 || i >= f.Capacity() {
		return fmt.Errorf("storage: table %q row write out of range: %d of %d", f.name, i, f.Capacity())
	}
	b, j := i/f.rpb, i%f.rpb
	if f.rpb == 1 {
		// The write covers the whole block: no read needed, preserving
		// the paper geometry's exact one-write trace.
		if err := f.encodeAt(f.blk, j, r, used); err != nil {
			return err
		}
		return f.store.Write(b, f.blk)
	}
	var err error
	f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
		return f.encodeAt(plain, j, r, used)
	})
	return err
}

// RMWSlot reads the block containing row slot i, hands the plaintext and
// the in-block record index to fn for in-place mutation, and re-seals the
// block — exactly one read plus one write whatever fn does, so a packed
// dummy write (fn leaving the plaintext untouched) re-seals one block,
// not R rows.
func (f *Flat) RMWSlot(i int, fn func(plain []byte, j int) error) error {
	if i < 0 || i >= f.Capacity() {
		return fmt.Errorf("storage: table %q slot RMW out of range: %d of %d", f.name, i, f.Capacity())
	}
	b, j := i/f.rpb, i%f.rpb
	var err error
	f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
		return fn(plain, j)
	})
	return err
}

// encodeAt encodes a record (or dummy) at slot j of a block plaintext.
func (f *Flat) encodeAt(plain []byte, j int, r table.Row, used bool) error {
	if !used {
		return f.schema.EncodeDummyAt(plain, j)
	}
	return f.schema.EncodeRecordAt(plain, j, r)
}

// MutKind tags one flat-table mutation.
type MutKind uint8

const (
	// MutInsert places Row in the first free slot.
	MutInsert MutKind = iota
	// MutDelete overwrites every row matching Pred with a dummy.
	MutDelete
	// MutUpdate rewrites every row matching Pred to Upd(row).
	MutUpdate
)

// Mutation is one statement's write to a flat table, as ApplyBatch
// takes it. In a batch holding an unvalidated update, every Pred and
// Upd must be pure: the read-only pre-pass evaluates them too.
type Mutation struct {
	Kind MutKind
	Row  table.Row     // MutInsert: the row to place
	Pred table.Pred    // MutDelete, MutUpdate: the rows to touch
	Upd  table.Updater // MutUpdate: the rewrite of a matching row
	// Validated marks an update whose post-images the caller has
	// already checked against the schema; it needs no read-only
	// pre-pass.
	Validated bool
	// Prior, when set, receives what the mutation changes, so Restore
	// can undo it; it serves this mutation alone. A mutation without
	// one records nothing.
	Prior *Prior
}

// Prior is what one mutation (or one run of InsertFast calls) changed
// in a flat table: every slot it rewrote with the record the slot held
// just before — an unused slot's record is a dummy — and, once it has
// a slot, the append cursor before it. Restore writes them back.
type Prior struct {
	appendAt int
	slots    []int
	recs     []byte // the slots' earlier records, RecordSize bytes each
}

// ApplyBatch obliviously applies a run of mutations in one pass over
// the table: every block gets exactly one read and one write, whatever
// the data and however many mutations the run holds. Within each block
// the mutations apply in order; an insert still unplaced takes the
// block's first free slot. The table ends exactly as applying the
// mutations one by one would leave it, slot for slot. It returns each
// mutation's affected row count (1 for a placed insert), or an error
// and no counts. A mutation with a Prior records each slot it changes,
// with the slot's contents just before, and the append cursor as the
// mutations one by one would leave it before this one, so Restore can
// undo a suffix of the batch however far a failed pass got.
//
// Insert rows are validated before any access. A run holding an update
// whose post-images the caller has not validated first makes a
// read-only pre-pass that replays the same per-block sequence without
// writing, so a misbehaving updater (wrong arity, wrong kind, oversized
// string) fails with the table untouched; nothing is buffered, so
// tables arbitrarily larger than the oblivious memory update in O(1)
// enclave space. The trace is therefore the pass, preceded by one read
// per block exactly when an unvalidated update is present — a function
// of the mutation kinds and the block count only. The row count and the
// append cursor follow each block as its write lands, so a pass cut
// short by a store fault leaves them matching the blocks it rewrote.
// An insert left unplaced because the table is full fails the batch
// after the pass.
func (f *Flat) ApplyBatch(muts []Mutation) ([]int, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	check := false
	for _, m := range muts {
		switch m.Kind {
		case MutInsert:
			if err := f.schema.ValidateRow(m.Row); err != nil {
				return nil, err
			}
		case MutUpdate:
			check = check || !m.Validated
		}
	}
	if f.dec == nil {
		f.dec = f.schema.NewBlockBuf(f.rpb)
	}
	if check {
		pre := newBatchPass(muts)
		for b := 0; b < f.store.Len(); b++ {
			if err := f.readBlk(b); err != nil {
				return nil, err
			}
			if err := f.applyBlock(f.blk, b, pre, true); err != nil {
				return nil, err
			}
		}
	}
	p := newBatchPass(muts)
	rows, at, capacity := f.rows, f.appendAt, f.Capacity()
	// The last tally, over every block the pass reached, leaves the
	// Priors' cursors.
	defer p.tally(rows, at, capacity)
	for b := 0; b < f.store.Len(); b++ {
		var err error
		f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
			return f.applyBlock(plain, b, p, false)
		})
		if err != nil {
			return nil, err
		}
		f.rows, f.appendAt = p.tally(rows, at, capacity)
	}
	for i, m := range muts {
		if m.Kind == MutInsert && p.end[i] == 0 {
			return nil, fmt.Errorf("storage: table %q is full (%d rows)", f.name, f.Capacity())
		}
	}
	return p.counts, nil
}

// batchPass is one ApplyBatch pass's progress: one past the slot each
// insert took (end, 0 while unplaced) and the per-mutation counts.
type batchPass struct {
	muts   []Mutation
	end    []int
	counts []int
}

func newBatchPass(muts []Mutation) *batchPass {
	n := len(muts)
	return &batchPass{muts: muts, end: make([]int, n), counts: make([]int, n)}
}

// tally folds the pass's effects so far over a starting row count and
// append cursor, as applying the mutations one by one would: an insert
// moves the cursor past its slot, and a delete that removed anything
// moves it to the capacity — deletions may open holes before it, so
// inserts fall back to the scanning pass (the paper offers InsertFast
// for tables "with few deletions"). Each Prior gets the cursor before
// its mutation.
func (p *batchPass) tally(rows, at, capacity int) (int, int) {
	for i, m := range p.muts {
		if m.Prior != nil {
			m.Prior.appendAt = at
		}
		at = max(at, p.end[i])
		switch m.Kind {
		case MutInsert:
			rows += p.counts[i]
		case MutDelete:
			rows -= p.counts[i]
			if p.counts[i] > 0 {
				at = capacity
			}
		}
	}
	return rows, at
}

// applyBlock applies the batch, in order, to block b's plaintext. With
// check set (the read-only pre-pass) it validates the post-image of
// every unvalidated update; otherwise it records each change in its
// mutation's Prior.
func (f *Flat) applyBlock(plain []byte, b int, p *batchPass, check bool) error {
	rs := f.schema.RecordSize()
	keep := func(m Mutation, j int) {
		if m.Prior != nil && !check {
			m.Prior.slots = append(m.Prior.slots, b*f.rpb+j)
			m.Prior.recs = append(m.Prior.recs, plain[j*rs:(j+1)*rs]...)
		}
	}
	decoded := false // f.dec holds plain's current records
	for i, m := range p.muts {
		if m.Kind == MutInsert {
			if p.end[i] != 0 {
				continue
			}
			for j := 0; j < f.rpb; j++ {
				if f.schema.UsedAt(plain, j) {
					continue
				}
				keep(m, j)
				if err := f.schema.EncodeRecordAt(plain, j, m.Row); err != nil {
					return err
				}
				decoded = false
				p.end[i] = b*f.rpb + j + 1
				p.counts[i]++
				break
			}
			continue
		}
		if !decoded {
			if err := f.schema.DecodeBlockInto(f.dec, plain); err != nil {
				return err
			}
			decoded = true
		}
		n := 0
		for j := 0; j < f.rpb; j++ {
			row, used := f.dec.Row(j)
			if !used || !m.Pred(row) {
				continue
			}
			keep(m, j)
			var err error
			if m.Kind == MutDelete {
				err = f.schema.EncodeDummyAt(plain, j)
			} else {
				post := m.Upd(row.Clone())
				if check && !m.Validated {
					if verr := f.schema.ValidateRow(post); verr != nil {
						return fmt.Errorf("storage: update on %q produced an invalid row: %w", f.name, verr)
					}
				}
				err = f.schema.EncodeRecordAt(plain, j, post)
			}
			if err != nil {
				return err
			}
			n++
		}
		if n > 0 {
			decoded = false
			p.counts[i] += n
		}
	}
	return nil
}

// Insert obliviously inserts a row: a one-mutation ApplyBatch, so the
// block holding the first unused slot receives the real write and every
// other block a dummy write (a re-seal of the data it already holds).
// One read and one write per block; leaks only the table size and
// geometry.
func (f *Flat) Insert(r table.Row) error {
	_, err := f.ApplyBatch([]Mutation{{Kind: MutInsert, Row: r}})
	return err
}

// InsertFast is the constant-time insertion variant for tables with few
// deletions (§3.1): it touches only the block holding the next slot,
// skipping the scan. The slot sequence depends only on the number of
// prior insertions, which the adversary already learns from table sizes
// over time. When prior is set it records the slot, which held a dummy.
// A table holding no row appends from its first slot again.
func (f *Flat) InsertFast(r table.Row, prior *Prior) error {
	if err := f.schema.ValidateRow(r); err != nil {
		return err
	}
	if prior != nil && len(prior.slots) == 0 {
		prior.appendAt = f.appendAt
	}
	if f.rows == 0 {
		f.appendAt = 0
	}
	if f.appendAt >= f.Capacity() {
		return fmt.Errorf("storage: table %q is full (%d rows)", f.name, f.Capacity())
	}
	if prior != nil {
		prior.slots = append(prior.slots, f.appendAt)
		prior.recs = append(prior.recs, make([]byte, f.schema.RecordSize())...) // a zero record is a dummy
	}
	if err := f.SetRow(f.appendAt, r, true); err != nil {
		return err
	}
	f.appendAt++
	f.rows++
	return nil
}

// Restore undoes the changes recorded in priors, given oldest first, in
// one read-modify-write pass over every block: each slot they cover gets
// back the record it held before the earliest of them changed it, the
// append cursor goes back to where it stood before the earliest change,
// and the row count is recounted from the restored blocks. A slot whose
// change never landed — its pass was cut short — already holds that
// record, so restoring it again changes nothing: Restore needs no
// knowledge of how far a failed pass got. The trace is one read and one
// write per block, whatever the priors hold.
func (f *Flat) Restore(priors []*Prior) error {
	rs := f.schema.RecordSize()
	earliest := make(map[int][]byte)
	rows, appendAt := 0, f.appendAt
	for i := len(priors) - 1; i >= 0; i-- {
		p := priors[i]
		for k, s := range p.slots {
			earliest[s] = p.recs[k*rs : (k+1)*rs]
		}
		if len(p.slots) > 0 {
			appendAt = p.appendAt
		}
	}
	for b := 0; b < f.store.Len(); b++ {
		var err error
		f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
			for j := 0; j < f.rpb; j++ {
				if rec, ok := earliest[b*f.rpb+j]; ok {
					copy(plain[j*rs:], rec)
				}
				if f.schema.UsedAt(plain, j) {
					rows++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	f.rows, f.appendAt = rows, appendAt
	return nil
}

// AppendRoom returns how many more rows InsertFast can take: the slots
// past the append cursor.
func (f *Flat) AppendRoom() int { return f.Capacity() - f.appendAt }

// Update obliviously applies upd to every row matching pred: a
// one-mutation ApplyBatch with an unvalidated update, so a read-only
// validation pass precedes the read-modify-write pass and a
// misbehaving updater fails with the table untouched. pred and upd must
// be pure: both passes evaluate them. It returns the number of rows
// updated.
func (f *Flat) Update(pred table.Pred, upd table.Updater) (int, error) {
	return f.applyOne(Mutation{Kind: MutUpdate, Pred: pred, Upd: upd})
}

// Delete obliviously marks every row matching pred unused, overwriting
// it with dummy data; every block gets exactly one read and one write
// (its survivors re-encrypted). It returns the number of rows deleted.
func (f *Flat) Delete(pred table.Pred) (int, error) {
	return f.applyOne(Mutation{Kind: MutDelete, Pred: pred})
}

// applyOne runs a one-mutation batch and returns its count.
func (f *Flat) applyOne(m Mutation) (int, error) {
	counts, err := f.ApplyBatch([]Mutation{m})
	if err != nil {
		return 0, err
	}
	return counts[0], nil
}

// Scan reads every block once in order, invoking fn inside the enclave
// for each row slot (row is nil when the slot is unused). The rows
// passed to fn alias a scratch buffer reused block to block: fn must
// Clone any row it retains. The trace is one read per block regardless
// of data, and the steady-state path allocates nothing per block.
func (f *Flat) Scan(fn func(i int, row table.Row, used bool) error) error {
	if f.dec == nil {
		f.dec = f.schema.NewBlockBuf(f.rpb)
	}
	for b := 0; b < f.store.Len(); b++ {
		if err := f.ReadBlockInto(b, f.dec); err != nil {
			return err
		}
		base := b * f.rpb
		for j := 0; j < f.rpb; j++ {
			row, used := f.dec.Row(j)
			if err := fn(base+j, row, used); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows collects all used rows in slot order. It is a convenience for
// tests and result delivery, not an oblivious operator. The result slice
// is preallocated to the known row count and every row is a fresh copy.
func (f *Flat) Rows() ([]table.Row, error) {
	out := make([]table.Row, 0, f.rows)
	err := f.Scan(func(_ int, row table.Row, used bool) error {
		if used {
			out = append(out, row.Clone())
		}
		return nil
	})
	return out, err
}

// CopyInto obliviously copies this table block-for-block into dst, which
// must have at least the same capacity, an equal schema, and the same
// packing factor. The copy's trace depends only on sizes (used by table
// growth); dst blocks past the source keep their freshly-initialized
// dummy contents.
func (f *Flat) CopyInto(dst *Flat) error {
	if !f.schema.Equal(dst.schema) {
		return fmt.Errorf("storage: schema mismatch copying %q into %q", f.name, dst.name)
	}
	if dst.rpb != f.rpb {
		return fmt.Errorf("storage: geometry mismatch copying %q (R=%d) into %q (R=%d)", f.name, f.rpb, dst.name, dst.rpb)
	}
	if dst.Capacity() < f.Capacity() {
		return fmt.Errorf("storage: destination %q too small: %d < %d", dst.name, dst.Capacity(), f.Capacity())
	}
	for b := 0; b < f.store.Len(); b++ {
		if err := f.readBlk(b); err != nil {
			return err
		}
		if err := dst.store.Write(b, f.blk); err != nil {
			return err
		}
	}
	dst.rows = f.rows
	dst.appendAt = f.appendAt
	return nil
}

// Expand returns a new flat table with larger capacity (same geometry)
// holding the same rows ("an initial maximum capacity that can be
// increased later by copying to a new, larger table", §3).
func (f *Flat) Expand(name string, newCapacity int) (*Flat, error) {
	if newCapacity < f.Capacity() {
		return nil, fmt.Errorf("storage: cannot shrink %q from %d to %d", f.name, f.Capacity(), newCapacity)
	}
	bigger, err := NewFlatGeom(f.enc, name, f.schema, newCapacity, f.rpb)
	if err != nil {
		return nil, err
	}
	if err := f.CopyInto(bigger); err != nil {
		return nil, err
	}
	return bigger, nil
}

// BumpRows adjusts the trusted row count after operators fill an output
// table directly through SetRow or a BlockWriter.
func (f *Flat) BumpRows(n int) { f.rows += n }

// seqFill owns the sequential-fill slot arithmetic shared by
// BlockWriter and storage.RangeWriter: records encode into an
// in-enclave block buffer and each block is handed to write exactly
// once — when it completes, or dummy-padded at Flush. One sealed write
// per block instead of one read-modify-write per row.
type seqFill struct {
	f       *Flat
	buf     []byte
	next    int // next row slot, relative to the fill's origin
	slots   int // total row slots available
	flushed bool
	write   func(block int, plain []byte) error
}

func newSeqFill(f *Flat, slots int, write func(block int, plain []byte) error) seqFill {
	return seqFill{f: f, buf: make([]byte, f.store.BlockSize()), slots: slots, write: write}
}

// Append encodes one row (or dummy) into the next slot, emitting the
// block when it completes.
func (w *seqFill) Append(r table.Row, used bool) error {
	if w.flushed {
		return fmt.Errorf("storage: sequential fill of %q appended after Flush", w.f.name)
	}
	if w.next >= w.slots {
		return fmt.Errorf("storage: sequential fill past its %d slots of %q", w.slots, w.f.name)
	}
	j := w.next % w.f.rpb
	if err := w.f.encodeAt(w.buf, j, r, used); err != nil {
		return err
	}
	w.next++
	if j == w.f.rpb-1 {
		return w.write(w.next/w.f.rpb-1, w.buf)
	}
	return nil
}

// Written returns the number of slots appended so far.
func (w *seqFill) Written() int { return w.next }

// Flush completes a partial final block, padding its remaining slots
// with dummies. Appending after Flush is an error.
func (w *seqFill) Flush() error {
	w.flushed = true
	j := w.next % w.f.rpb
	if j == 0 {
		return nil
	}
	for ; j < w.f.rpb; j++ {
		if err := w.f.schema.EncodeDummyAt(w.buf, j); err != nil {
			return err
		}
		w.next++
	}
	return w.write(w.next/w.f.rpb-1, w.buf)
}

// BlockWriter fills a table's row slots sequentially from slot 0 — the
// output half of every sequential-fill operator. The writer must own
// the whole table (a fresh operator output); Flush pads the final
// partial block's remaining slots with dummies and writes it.
type BlockWriter struct{ seqFill }

// NewBlockWriter creates a sequential writer over f starting at slot 0.
func (f *Flat) NewBlockWriter() *BlockWriter {
	return &BlockWriter{newSeqFill(f, f.Capacity(), func(b int, plain []byte) error {
		return f.store.Write(b, plain)
	})}
}

// ReadView is a read-only view of a flat table owned by one concurrent
// read context: it carries its own plaintext and decode scratch and reads
// through the context's enclave (ReadIntoVia), so several views — and the
// table's owner — may read the same sealed blocks concurrently. Accesses
// are recorded on the view's tracer under the table's name, exactly as
// the owning enclave would record them. A view is only valid while no
// goroutine writes the table (the engine guarantees this with its
// read/write lock) and is invalidated by Expand, which replaces the
// table's store.
//
// ReadView implements the exec.Input block-reader shape directly.
type ReadView struct {
	f      *Flat
	via    *enclave.Enclave
	region trace.Region
	blk    []byte
}

// ReadViewVia creates a read view of f for the given enclave context.
// The view registers a region named after the table on the context's
// tracer.
func (f *Flat) ReadViewVia(via *enclave.Enclave) *ReadView {
	return &ReadView{
		f:      f,
		via:    via,
		region: via.Tracer().Region(f.name),
		blk:    make([]byte, f.store.BlockSize()),
	}
}

// Table returns the flat table behind the view.
func (v *ReadView) Table() *Flat { return v.f }

// Schema returns the table schema.
func (v *ReadView) Schema() *table.Schema { return v.f.schema }

// Blocks returns the number of sealed blocks.
func (v *ReadView) Blocks() int { return v.f.store.Len() }

// RowsPerBlock returns R, the packing factor.
func (v *ReadView) RowsPerBlock() int { return v.f.rpb }

// ReadBlockInto decrypts packed block b through the view's enclave into
// the caller-owned scratch buf.
func (v *ReadView) ReadBlockInto(b int, buf *table.BlockBuf) error {
	plain, err := v.f.store.ReadIntoVia(v.via, v.region, b, v.blk)
	if err != nil {
		return err
	}
	v.blk = plain
	return v.f.schema.DecodeBlockInto(buf, plain)
}
