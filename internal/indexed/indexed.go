// Package indexed is ObliDB's indexed storage method (§3, §4): an
// oblivious B+ tree whose nodes AND packed record blocks both live inside
// one Ring ORAM, so traversal and row access are equally oblivious. It is
// the second of the paper's two planner-selectable access methods — flat
// storage answers every query with a full scan; indexed storage answers
// point and range queries in O(height + result blocks) ORAM operations.
//
// Record blocks hold R rows each, packed with the internal/table codec
// exactly like packed flat blocks; R = 1 is the paper's one-record-per-
// block geometry. A row is addressed by rowID = blockID*R + slot; the
// rowID doubles as the leaf-entry sequence tiebreaker, so the B+ tree
// algorithms — and crucially their public padding targets — do not
// depend on R: reading or writing one row is exactly one ORAM access (of
// the block holding its slot).
//
// Block ids partition the ORAM address space: [0, dataBlocks) are record
// blocks, [dataBlocks, capacity) are tree nodes. Both partitions are
// behind the same ORAM, so the adversary sees only uniformly random path
// accesses either way.
package indexed

import (
	"encoding/binary"
	"fmt"
	"slices"

	"oblidb/internal/enclave"
	"oblidb/internal/oram"
	"oblidb/internal/table"
)

// fanout is the maximum number of keys per node. One extra slot in the
// arrays absorbs the transient overflow that triggers a split.
const fanout = 8

const (
	minKeys = fanout / 2
	maxKeys = fanout + 1
)

// Block kinds. A fresh (all-zero) ORAM block decodes as kindFree.
const (
	kindFree     = 0
	kindInternal = 1
	kindLeaf     = 2
	kindRecord   = 3
)

// DefaultRowsPerBlock is the packing factor used when the caller does not
// choose one. Eight rows per record block keeps record blocks in the same
// size class as tree nodes for typical schemas. That matters because the
// ORAM has one block size: every tree hop and padding dummy of a lookup
// moves a slot as large as the larger of a node and a record block.
const DefaultRowsPerBlock = 8

// maxDefaultBlockBytes caps the default record block of wide schemas at
// the ~4 KiB of plaintext a default-packed flat block holds.
const maxDefaultBlockBytes = 4096

// node is the in-enclave form of a tree node.
//
// Internal: keys[0..n-1] with seqs as separator tiebreakers, ptrs[0..n]
// child node ids. Child i holds entries < (keys[i], seqs[i]); child n
// holds the rest.
//
// Leaf: entries (keys[i], ptrs[i]) for i < n, sorted by composite key;
// ptrs are rowIDs (block*R+slot), which double as the seq tiebreaker.
// next links the leaf chain (stored +1; 0 = none).
type node struct {
	leaf bool
	n    int
	keys [maxKeys]int64
	seqs [maxKeys]uint32
	ptrs [maxKeys + 1]uint32
	next uint32
}

// seq returns the composite tiebreaker of entry/separator i.
func (nd *node) seq(i int) int64 {
	if nd.leaf {
		return int64(nd.ptrs[i])
	}
	return int64(nd.seqs[i])
}

// cmpKS orders composite keys. seq -1 acts as -infinity for range bounds.
func cmpKS(k1, s1, k2, s2 int64) int {
	switch {
	case k1 < k2:
		return -1
	case k1 > k2:
		return 1
	case s1 < s2:
		return -1
	case s1 > s2:
		return 1
	}
	return 0
}

// nodeBytes is the encoded size of a node.
const nodeBytes = 1 + 2 + 4 + maxKeys*8 + (maxKeys+1)*4 + maxKeys*4

// Table is an ORAM-backed indexed table: packed record blocks plus the
// B+ tree over them, all in one Ring ORAM.
type Table struct {
	enc    *enclave.Enclave
	schema *table.Schema
	keyCol int
	o      *oram.Ring
	name   string

	rpb        int // rows per record block (R)
	dataBlocks int // record blocks; node ids start here
	maxSlots   int // dataBlocks * rpb

	treeState

	maxRows int
	ops     int    // ORAM accesses in the current operation, for padding
	prior   *Prior // records changes while tracked (see Track)

	// Reusable scratch: the point-lookup hot path (LookupInto) allocates
	// nothing in steady state, pinned by an AllocsPerRun test.
	buf     []byte  // node/record encode buffer
	nodeBuf []byte  // node read destination
	recBuf  []byte  // record read destination
	updBuf  []byte  // UpdateInto result sink
	arena   []*node // per-operation node arena (pointers stay stable)
	arenaN  int
	path    []pathEntry
	dirty   dirtySet
	scanRow table.Row // the row RangeScan and ScanRaw hand their callbacks
}

// treeState is the tree's trusted state, kept in the enclave.
type treeState struct {
	root   uint32
	height int // node levels on the root-leaf path; 0 = empty tree
	rows   int

	freeRows  []uint32 // recycled rowIDs
	nextRow   uint32
	freeNodes []uint32 // recycled node block ids
	nextNode  uint32
}

// Options tunes indexed-table construction.
type Options struct {
	// RowsPerBlock is R, the packing factor of record blocks. Zero means
	// DefaultRowsPerBlock, lowered for wide schemas so a record block
	// holds at most ~4 KiB of plaintext (and at least one row).
	RowsPerBlock int
	// Seed seeds the ORAM's leaf-assignment PRNG. Zero derives a stable
	// seed from the enclave seed and the table name, so traces are
	// reproducible either way; a nonzero seed pins them across enclaves.
	Seed uint64
}

// New creates an empty indexed table over the integer column keyCol, able
// to hold up to maxRows rows.
func New(e *enclave.Enclave, name string, schema *table.Schema, keyCol, maxRows int, opts Options) (*Table, error) {
	if keyCol < 0 || keyCol >= schema.NumColumns() {
		return nil, fmt.Errorf("indexed: key column %d out of range", keyCol)
	}
	if k := schema.Col(keyCol).Kind; k != table.KindInt {
		return nil, fmt.Errorf("indexed: key column %q must be INTEGER, is %s", schema.Col(keyCol).Name, k)
	}
	if maxRows <= 0 {
		return nil, fmt.Errorf("indexed: maxRows must be positive, got %d", maxRows)
	}
	rpb := opts.RowsPerBlock
	if rpb == 0 {
		rpb = min(DefaultRowsPerBlock, max(1, maxDefaultBlockBytes/schema.RecordSize()))
	}
	if rpb < 1 {
		return nil, fmt.Errorf("indexed: rows per block must be positive, got %d", rpb)
	}
	blockSize := nodeBytes
	if rs := 1 + schema.BlockSize(rpb); rs > blockSize {
		blockSize = rs
	}
	dataBlocks := (maxRows + rpb - 1) / rpb
	// Node census at worst-case (half) occupancy: ≤ maxRows/minKeys leaves
	// plus a geometric tail of internals — under maxRows/3, with slack for
	// shallow trees and transient splits.
	nodeCap := maxRows/3 + 64
	capacity := dataBlocks + nodeCap
	o, err := oram.NewRing(e, name, capacity, blockSize, oram.Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &Table{
		enc:        e,
		schema:     schema,
		keyCol:     keyCol,
		o:          o,
		name:       name,
		rpb:        rpb,
		dataBlocks: dataBlocks,
		maxSlots:   dataBlocks * rpb,
		treeState:  treeState{nextNode: uint32(dataBlocks)},
		maxRows:    maxRows,
		buf:        make([]byte, blockSize),
		scanRow:    make(table.Row, schema.NumColumns()),
	}, nil
}

// Close releases the table's ORAM resources.
func (t *Table) Close() { t.o.Close() }

// Schema returns the row schema.
func (t *Table) Schema() *table.Schema { return t.schema }

// KeyCol returns the indexed column.
func (t *Table) KeyCol() int { return t.keyCol }

// NumRows returns the number of rows stored.
func (t *Table) NumRows() int { return t.rows }

// MaxRows returns the construction-time capacity.
func (t *Table) MaxRows() int { return t.maxRows }

// RowsPerBlock returns R, the record-block packing factor.
func (t *Table) RowsPerBlock() int { return t.rpb }

// Height returns the number of node levels (0 for an empty tree). Height
// is public: it is a function of the (leaked) table size.
func (t *Table) Height() int { return t.height }

// ORAM exposes the underlying ORAM scheme for size accounting and raw
// scans.
func (t *Table) ORAM() oram.Scheme { return t.o }

// AccessesPerOp is the number of untrusted block accesses one logical
// ORAM operation costs — the public O(log N) factor the planner
// multiplies tree-operation counts by.
func (t *Table) AccessesPerOp() int { return t.o.AccessesPerOp() }

// Store exposes the untrusted bucket store; adversary tests tamper with
// it.
func (t *Table) Store() *enclave.Store { return t.o.Store() }

// Prior is what a tracked table's operations changed: the blocks they
// rewrote and their earlier contents, the state before, their targets.
type Prior struct {
	state  treeState
	ids    []int
	pre    []byte // the ids' earlier contents, one block each
	target int
}

// Track starts recording the table's changes in a new Prior.
func (t *Table) Track() *Prior {
	p := &Prior{state: t.treeState}
	p.state.freeRows, p.state.freeNodes = slices.Clone(t.freeRows), slices.Clone(t.freeNodes)
	t.prior = p
	t.o.Track(func(id int, data []byte) {
		p.ids = append(p.ids, id)
		p.pre = append(p.pre, data...)
	})
	return p
}

// Untrack stops recording.
func (t *Table) Untrack() {
	t.prior = nil
	t.o.Track(nil)
}

// Restore undoes priors, oldest first, on an untracked table: the first
// one's state comes back, and the recorded contents are written back
// newest first, padded to the summed targets. A table that was empty,
// as a BulkLoad's is, resets its ORAM instead, with no access.
func (t *Table) Restore(priors []*Prior) error {
	t.treeState = priors[0].state
	if t.rows == 0 {
		t.o.Reset()
		return nil
	}
	t.beginOp(0)
	target, bs := 0, t.o.BlockSize()
	for i := len(priors) - 1; i >= 0; i-- {
		p := priors[i]
		target += p.target
		for j := len(p.ids) - 1; j >= 0; j-- {
			t.ops++
			if _, err := t.o.Access(oram.OpWrite, p.ids[j], p.pre[j*bs:(j+1)*bs]); err != nil {
				return err
			}
		}
	}
	return t.padTo(target)
}

// --- rowIDs and node ids ---------------------------------------------------

func (t *Table) rowBlock(rowID uint32) int { return int(rowID) / t.rpb }
func (t *Table) rowSlot(rowID uint32) int  { return int(rowID) % t.rpb }

func (t *Table) allocRow() (uint32, error) {
	if n := len(t.freeRows); n > 0 {
		id := t.freeRows[n-1]
		t.freeRows = t.freeRows[:n-1]
		return id, nil
	}
	if int(t.nextRow) >= t.maxSlots {
		return 0, fmt.Errorf("indexed: table %q is full (%d rows)", t.name, t.maxRows)
	}
	id := t.nextRow
	t.nextRow++
	return id, nil
}

func (t *Table) freeRow(id uint32) { t.freeRows = append(t.freeRows, id) }

func (t *Table) allocNode() (uint32, error) {
	if n := len(t.freeNodes); n > 0 {
		id := t.freeNodes[n-1]
		t.freeNodes = t.freeNodes[:n-1]
		return id, nil
	}
	if int(t.nextNode) >= t.o.Capacity() {
		return 0, fmt.Errorf("indexed: node space of table %q is exhausted", t.name)
	}
	id := t.nextNode
	t.nextNode++
	return id, nil
}

func (t *Table) freeNode(id uint32) { t.freeNodes = append(t.freeNodes, id) }

// --- per-operation scratch -------------------------------------------------

// newNode hands out an arena node, valid until the next beginOp. Pointers
// stay stable while the arena grows because the arena holds pointers.
func (t *Table) newNode() *node {
	if t.arenaN == len(t.arena) {
		t.arena = append(t.arena, &node{})
	}
	nd := t.arena[t.arenaN]
	t.arenaN++
	*nd = node{}
	return nd
}

// beginOp resets the access counter and the node arena, and adds target
// to a tracked table's Prior.
func (t *Table) beginOp(target int) {
	t.ops = 0
	t.arenaN = 0
	if t.prior != nil {
		t.prior.target += target
	}
}

// --- ORAM I/O with access counting ----------------------------------------

// readNodeInto decodes block id into nd. One ORAM access.
func (t *Table) readNodeInto(nd *node, id uint32) error {
	t.ops++
	data, err := t.o.AccessInto(oram.OpRead, int(id), nil, t.nodeBuf)
	if err != nil {
		return err
	}
	t.nodeBuf = data
	return decodeNodeInto(nd, data)
}

func (t *Table) readNode(id uint32) (*node, error) {
	nd := t.newNode()
	if err := t.readNodeInto(nd, id); err != nil {
		return nil, err
	}
	return nd, nil
}

func (t *Table) writeNode(id uint32, nd *node) error {
	t.ops++
	encodeNode(t.buf, nd)
	res, err := t.o.AccessInto(oram.OpWrite, int(id), t.buf, t.updBuf)
	t.updBuf = res
	return err
}

// stageNode is writeNode for the bulk-build path: the encoded node joins
// the staged stash instead of paying a per-write ORAM access.
func (t *Table) stageNode(id uint32, nd *node) error {
	encodeNode(t.buf, nd)
	return t.o.BulkStage(int(id), t.buf)
}

// readRecord reads the row at rowID, decoded into fresh memory (safe to
// retain). One ORAM access.
func (t *Table) readRecord(rowID uint32) (table.Row, error) {
	t.ops++
	data, err := t.o.AccessInto(oram.OpRead, t.rowBlock(rowID), nil, t.recBuf)
	if err != nil {
		return nil, err
	}
	t.recBuf = data
	if data[0] != kindRecord {
		return nil, fmt.Errorf("indexed: block %d is not a record block (kind %d)", t.rowBlock(rowID), data[0])
	}
	row, used, err := t.schema.DecodeRecordAt(data[1:], t.rowSlot(rowID))
	if err != nil {
		return nil, err
	}
	if !used {
		return nil, fmt.Errorf("indexed: row slot %d is unused", rowID)
	}
	return row, nil
}

// readRecordInto decodes the row at rowID into dst without allocating;
// string values alias the internal read buffer and are valid only until
// the next ORAM access. One ORAM access.
func (t *Table) readRecordInto(dst table.Row, rowID uint32) error {
	t.ops++
	data, err := t.o.AccessInto(oram.OpRead, t.rowBlock(rowID), nil, t.recBuf)
	if err != nil {
		return err
	}
	t.recBuf = data
	if data[0] != kindRecord {
		return fmt.Errorf("indexed: block %d is not a record block (kind %d)", t.rowBlock(rowID), data[0])
	}
	used, err := t.schema.DecodeRecordInto(dst, data[1:], t.rowSlot(rowID))
	if err != nil {
		return err
	}
	if !used {
		return fmt.Errorf("indexed: row slot %d is unused", rowID)
	}
	return nil
}

// writeRecord installs r in rowID's slot, leaving the block's other slots
// untouched. One ORAM access (read-modify-write).
func (t *Table) writeRecord(rowID uint32, r table.Row) error {
	t.ops++
	slot := t.rowSlot(rowID)
	var encErr error
	res, err := t.o.UpdateInto(t.rowBlock(rowID), t.updBuf, func(data []byte) []byte {
		data[0] = kindRecord
		if e := t.schema.EncodeRecordAt(data[1:], slot, r); e != nil && encErr == nil {
			encErr = e
		}
		return data
	})
	t.updBuf = res
	if err != nil {
		return err
	}
	return encErr
}

// clearRecord marks rowID's slot unused so raw scans never resurrect
// deleted rows. One ORAM access.
func (t *Table) clearRecord(rowID uint32) error {
	t.ops++
	slot := t.rowSlot(rowID)
	res, err := t.o.UpdateInto(t.rowBlock(rowID), t.updBuf, func(data []byte) []byte {
		data[0] = kindRecord
		_ = t.schema.EncodeDummyAt(data[1:], slot)
		return data
	})
	t.updBuf = res
	return err
}

func (t *Table) dummyAccess() error {
	t.ops++
	return t.o.DummyAccess()
}

// padTo issues dummy ORAM accesses until the operation has performed
// exactly target accesses — the paper's defense for hiding splits and
// merges (§3.2). target must be a function of public state only.
func (t *Table) padTo(target int) error {
	if t.ops > target {
		return fmt.Errorf("indexed: operation used %d accesses, exceeding its padding target %d", t.ops, target)
	}
	for t.ops < target {
		if err := t.dummyAccess(); err != nil {
			return err
		}
	}
	return nil
}

// --- node codec ------------------------------------------------------------

func encodeNode(buf []byte, nd *node) {
	for i := range buf {
		buf[i] = 0
	}
	if nd.leaf {
		buf[0] = kindLeaf
	} else {
		buf[0] = kindInternal
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(nd.n))
	binary.LittleEndian.PutUint32(buf[3:7], nd.next)
	off := 7
	for i := 0; i < maxKeys; i++ {
		binary.LittleEndian.PutUint64(buf[off+i*8:], uint64(nd.keys[i]))
	}
	off += maxKeys * 8
	for i := 0; i < maxKeys+1; i++ {
		binary.LittleEndian.PutUint32(buf[off+i*4:], nd.ptrs[i])
	}
	off += (maxKeys + 1) * 4
	for i := 0; i < maxKeys; i++ {
		binary.LittleEndian.PutUint32(buf[off+i*4:], nd.seqs[i])
	}
}

func decodeNodeInto(nd *node, data []byte) error {
	kind := data[0]
	if kind != kindInternal && kind != kindLeaf {
		return fmt.Errorf("indexed: block is not a node (kind %d)", kind)
	}
	nd.leaf = kind == kindLeaf
	nd.n = int(binary.LittleEndian.Uint16(data[1:3]))
	if nd.n > maxKeys {
		return fmt.Errorf("indexed: corrupt node: %d keys", nd.n)
	}
	nd.next = binary.LittleEndian.Uint32(data[3:7])
	off := 7
	for i := 0; i < maxKeys; i++ {
		nd.keys[i] = int64(binary.LittleEndian.Uint64(data[off+i*8:]))
	}
	off += maxKeys * 8
	for i := 0; i < maxKeys+1; i++ {
		nd.ptrs[i] = binary.LittleEndian.Uint32(data[off+i*4:])
	}
	off += (maxKeys + 1) * 4
	for i := 0; i < maxKeys; i++ {
		nd.seqs[i] = binary.LittleEndian.Uint32(data[off+i*4:])
	}
	return nil
}
