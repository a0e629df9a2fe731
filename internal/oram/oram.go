// Package oram implements Path ORAM (Stefanov et al., CCS'13), the
// oblivious RAM scheme ObliDB instantiates (§3.2, Appendix B). An ORAM
// stores fixed-size logical blocks in untrusted memory such that any two
// access sequences of equal length are indistinguishable: every access
// reads and rewrites one full root-to-leaf path of a bucket tree, and the
// accessed block is remapped to a fresh random leaf.
//
// The client state — position map and stash — lives inside the enclave.
// The nonrecursive position map charges the enclave's oblivious-memory
// budget at the paper's rate of 8 bytes per block (§3.3); the recursive
// variant (Appendix B) stores the map in a second ORAM, trading ~2×
// performance for a constant-size in-enclave map.
package oram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"

	"oblidb/internal/enclave"
)

// Z is the bucket capacity in blocks. Path ORAM with Z=4 keeps the stash
// small with overwhelming probability.
const Z = 4

// PosBytesPerBlock is the oblivious-memory cost of one nonrecursive
// position-map entry (a uint32 leaf index). An indexed table's ORAM holds
// roughly two blocks per row (record + its share of tree nodes), so the
// per-row charge lands at the paper's "8 Bytes of memory per row of an
// indexed table" (§3.3).
const PosBytesPerBlock = 4

// stashEntry is an in-enclave copy of a block together with its currently
// assigned leaf. Keeping the leaf here lets eviction proceed without
// consulting the position map, which matters for the recursive variant
// (one child-ORAM access per parent access, not one per stash block).
type stashEntry struct {
	leaf uint32
	data []byte
}

// ORAM is a Path ORAM over an enclave-managed untrusted store.
type ORAM struct {
	enc       *enclave.Enclave
	store     *enclave.Store
	capacity  int // number of logical blocks
	blockSize int // logical block payload bytes
	levels    int // tree levels (path length)
	leaves    int // number of leaf buckets, a power of two
	pos       posMap
	stash     map[uint32]stashEntry
	slotSize  int
	plainBuf  []byte     // reusable bucket buffer for eviction
	readBuf   []byte     // reusable bucket buffer for path reads
	pathBuf   []int      // reusable root-to-leaf bucket index buffer
	dummyBuf  []byte     // DummyAccess result sink
	free      [][]byte   // recycled stash block buffers
	rng       *rand.Rand // dedicated leaf-assignment stream (see Options.Seed)
}

// newBlockBuf returns a zeroed block-sized buffer, recycling buffers of
// evicted stash entries so the steady-state stash churns no allocations.
func (o *ORAM) newBlockBuf() []byte {
	if n := len(o.free); n > 0 {
		buf := o.free[n-1]
		o.free = o.free[:n-1]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]byte, o.blockSize)
}

// Options configures ORAM construction.
type Options struct {
	// Recursive stores the position map in a second ORAM (Appendix B)
	// instead of charging 8 B/block of oblivious memory.
	Recursive bool
	// MapBlockSize is the block size of the recursive position-map ORAM.
	// Zero means 256 bytes (64 entries per map block).
	MapBlockSize int
	// Seed seeds this ORAM's private leaf-assignment PRNG. Zero derives a
	// stable seed from the enclave seed and the store name, so leaf
	// assignment is reproducible per (engine seed, table) regardless of
	// what other structures draw from the enclave's shared PRNG.
	Seed uint64
}

// newRng builds the ORAM's dedicated PRNG from Options.Seed (or the
// enclave-derived default).
func newRng(e *enclave.Enclave, name string, opts Options) *rand.Rand {
	seed := opts.Seed
	if seed == 0 {
		seed = e.SeedFor(name)
	}
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// New creates an ORAM holding capacity logical blocks of blockSize bytes.
// All blocks initially read as zeroes.
func New(e *enclave.Enclave, name string, capacity, blockSize int, opts Options) (*ORAM, error) {
	if capacity <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("oram: invalid capacity=%d blockSize=%d", capacity, blockSize)
	}
	// Sizing: leaves ≈ capacity/2 gives the ~4× slot overhead the paper
	// reports for its oblivious indexes (§3.3) while Z=4 keeps the stash
	// bounded in practice.
	leaves, levels := treeGeometry(capacity)
	numBuckets := 2*leaves - 1
	slotSize := 8 + blockSize
	store, err := e.NewStore(name, numBuckets, Z*slotSize)
	if err != nil {
		return nil, err
	}
	o := &ORAM{
		enc:       e,
		store:     store,
		capacity:  capacity,
		blockSize: blockSize,
		levels:    levels,
		leaves:    leaves,
		stash:     make(map[uint32]stashEntry),
		slotSize:  slotSize,
		plainBuf:  make([]byte, Z*slotSize),
		rng:       newRng(e, name, opts),
	}
	if opts.Recursive {
		o.pos, err = newRecursiveMap(e, name+".posmap", capacity, leaves, opts.MapBlockSize, o.rng)
	} else {
		o.pos, err = newPlainMap(e, capacity, leaves, o.rng)
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// Close releases the ORAM's oblivious-memory reservations.
func (o *ORAM) Close() {
	if o.pos != nil {
		o.pos.release()
		o.pos = nil
	}
}

// Capacity returns the number of logical blocks.
func (o *ORAM) Capacity() int { return o.capacity }

// BlockSize returns the logical block payload size.
func (o *ORAM) BlockSize() int { return o.blockSize }

// Levels returns the path length of one access.
func (o *ORAM) Levels() int { return o.levels }

// StashSize returns the current number of blocks in the stash. Path ORAM
// guarantees this stays small with overwhelming probability; tests verify.
func (o *ORAM) StashSize() int { return len(o.stash) }

// UntrustedBytes returns the untrusted memory the ORAM occupies, the ~4×
// overhead of Figure 2's "Index" column.
func (o *ORAM) UntrustedBytes() int { return o.store.SizeBytes() }

// Store exposes the untrusted bucket store for adversary tests.
func (o *ORAM) Store() *enclave.Store { return o.store }

// PosMapStore exposes the recursive position map's untrusted store (nil
// when the map is held in enclave memory), for adversary tests.
func (o *ORAM) PosMapStore() *enclave.Store { return o.pos.untrustedStore() }

// AccessesPerOp returns the number of untrusted block accesses one ORAM
// operation performs (path reads plus path writes), the O(log N) factor of
// §3.2.
func (o *ORAM) AccessesPerOp() int { return 2 * o.levels }

// Op selects the logical operation of an Access.
type Op uint8

const (
	// OpRead fetches a block's current contents.
	OpRead Op = iota
	// OpWrite replaces a block's contents.
	OpWrite
)

// Access performs one ORAM operation on block id and returns the block's
// resulting contents. Reads and writes are indistinguishable to the
// adversary: both read one path and rewrite it.
func (o *ORAM) Access(op Op, id int, data []byte) ([]byte, error) {
	return o.access(op, id, data, nil, nil)
}

// AccessInto is Access returning the contents in dst's capacity: when dst
// can hold one block nothing is allocated for the result.
func (o *ORAM) AccessInto(op Op, id int, data, dst []byte) ([]byte, error) {
	return o.access(op, id, data, nil, dst)
}

// Update atomically reads block id, applies fn to its contents, and writes
// the result back within a single path access. The slice passed to fn is
// owned by fn and may be mutated and returned.
func (o *ORAM) Update(id int, fn func([]byte) []byte) ([]byte, error) {
	return o.access(OpRead, id, nil, fn, nil)
}

// UpdateInto is Update returning the result in dst's capacity.
func (o *ORAM) UpdateInto(id int, dst []byte, fn func([]byte) []byte) ([]byte, error) {
	return o.access(OpRead, id, nil, fn, dst)
}

// DummyAccess performs a read of a uniformly random block, used by callers
// that pad operations to worst-case access counts (§3.2). The result lands
// in an internal scratch buffer so padding allocates nothing.
func (o *ORAM) DummyAccess() error {
	var err error
	o.dummyBuf, err = o.AccessInto(OpRead, o.rng.IntN(o.capacity), nil, o.dummyBuf)
	return err
}

// resultInto copies one block's contents into dst's capacity (allocating
// only when dst is too small), the shared tail of every access.
func resultInto(dst, data []byte, blockSize int) []byte {
	if cap(dst) < blockSize {
		dst = make([]byte, blockSize)
	}
	dst = dst[:blockSize]
	copy(dst, data)
	return dst
}

func (o *ORAM) access(op Op, id int, data []byte, fn func([]byte) []byte, dst []byte) ([]byte, error) {
	if id < 0 || id >= o.capacity {
		return nil, fmt.Errorf("oram: block id %d out of range [0,%d)", id, o.capacity)
	}
	if op == OpWrite && len(data) != o.blockSize {
		return nil, fmt.Errorf("oram: write of %d bytes, block size %d", len(data), o.blockSize)
	}
	newLeaf := uint32(o.rng.IntN(o.leaves))
	oldLeaf, err := o.pos.getSet(id, newLeaf)
	if err != nil {
		return nil, err
	}

	// Read the whole path into the stash.
	path := o.pathBuckets(int(oldLeaf))
	for _, b := range path {
		if err := o.readBucketIntoStash(b); err != nil {
			return nil, err
		}
	}

	// Serve the request from the stash under the block's new leaf. A block
	// never written reads as zeroes and is materialized so it can be
	// evicted to its new path.
	entry, ok := o.stash[uint32(id)]
	if !ok {
		entry = stashEntry{data: o.newBlockBuf()}
	}
	entry.leaf = newLeaf
	switch {
	case fn != nil:
		entry.data = fn(entry.data)
		if len(entry.data) != o.blockSize {
			return nil, fmt.Errorf("oram: update fn returned %d bytes, block size %d", len(entry.data), o.blockSize)
		}
	case op == OpWrite:
		copy(entry.data, data)
	}
	o.stash[uint32(id)] = entry
	result := resultInto(dst, entry.data, o.blockSize)

	// Write the path back, greedily evicting stash blocks as deep as
	// their assigned leaves allow.
	if err := o.evictPath(path); err != nil {
		return nil, err
	}
	return result, nil
}

// pathBuckets returns bucket indices from root to the given leaf. Buckets
// are heap-ordered: root 0, children of i at 2i+1 and 2i+2. The returned
// slice is the ORAM's scratch, valid until the next call.
func (o *ORAM) pathBuckets(leaf int) []int {
	if cap(o.pathBuf) < o.levels {
		o.pathBuf = make([]int, o.levels)
	}
	path := o.pathBuf[:o.levels]
	idx := o.leaves - 1 + leaf
	for l := o.levels - 1; l >= 0; l-- {
		path[l] = idx
		idx = (idx - 1) / 2
	}
	return path
}

// bucketAtLevel returns the bucket index at the given level on the path to
// leaf (level 0 = root).
func (o *ORAM) bucketAtLevel(leaf, level int) int {
	idx := o.leaves - 1 + leaf
	for l := o.levels - 1; l > level; l-- {
		idx = (idx - 1) / 2
	}
	return idx
}

// readBucketIntoStash decrypts one bucket and moves its real blocks into
// the stash. Slot ids are stored +1 so the all-zero fresh bucket decodes
// as empty. Each slot carries the block's assigned leaf so eviction never
// consults the position map.
func (o *ORAM) readBucketIntoStash(bucket int) error {
	plain, err := o.store.ReadInto(bucket, o.readBuf)
	if err != nil {
		return err
	}
	o.readBuf = plain
	for s := 0; s < Z; s++ {
		off := s * o.slotSize
		idPlus := binary.LittleEndian.Uint32(plain[off : off+4])
		if idPlus == 0 {
			continue
		}
		id := idPlus - 1
		if _, dup := o.stash[id]; dup {
			// The stash copy is authoritative; the bucket copy is stale.
			continue
		}
		leaf := binary.LittleEndian.Uint32(plain[off+4 : off+8])
		blk := o.newBlockBuf()
		copy(blk, plain[off+8:off+8+o.blockSize])
		o.stash[id] = stashEntry{leaf: leaf, data: blk}
	}
	return nil
}

// evictPath rewrites every bucket on the path, placing stash blocks into
// the deepest bucket compatible with their assigned leaf.
func (o *ORAM) evictPath(path []int) error {
	var chosen [Z]uint32
	for level := o.levels - 1; level >= 0; level-- {
		n := 0
		for id, entry := range o.stash {
			if n == Z {
				break
			}
			if o.bucketAtLevel(int(entry.leaf), level) == path[level] {
				chosen[n] = id
				n++
			}
		}
		plain := o.plainBuf
		for i := range plain {
			plain[i] = 0
		}
		for s := 0; s < n; s++ {
			id := chosen[s]
			entry := o.stash[id]
			off := s * o.slotSize
			binary.LittleEndian.PutUint32(plain[off:off+4], id+1)
			binary.LittleEndian.PutUint32(plain[off+4:off+8], entry.leaf)
			copy(plain[off+8:off+8+o.blockSize], entry.data)
			o.free = append(o.free, entry.data)
			delete(o.stash, id)
		}
		if err := o.store.Write(path[level], plain); err != nil {
			return err
		}
	}
	return nil
}

// RawScan reads the bucket array front to back — a fixed, data-independent
// access pattern — and yields every live logical block exactly once,
// including any blocks currently in the stash. This implements the paper's
// observation that "the indexed storage data structure can also be scanned
// linearly as a table" with tree nodes and ORAM slack treated as dummy
// blocks (§3.2), at less than the cost of the full ORAM protocol.
func (o *ORAM) RawScan(fn func(id int, data []byte) error) error {
	seen := make(map[uint32]bool, len(o.stash))
	for id, entry := range o.stash {
		seen[id] = true
		if err := fn(int(id), entry.data); err != nil {
			return err
		}
	}
	for b := 0; b < o.store.Len(); b++ {
		plain, err := o.store.Read(b)
		if err != nil {
			return err
		}
		for s := 0; s < Z; s++ {
			off := s * o.slotSize
			idPlus := binary.LittleEndian.Uint32(plain[off : off+4])
			if idPlus == 0 || seen[idPlus-1] {
				continue
			}
			seen[idPlus-1] = true
			if err := fn(int(idPlus-1), plain[off+8:off+8+o.blockSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// treeGeometry returns the leaf count and depth of a bucket tree for
// capacity blocks: leaves ≈ capacity/2, rounded up to a power of two.
func treeGeometry(capacity int) (leaves, levels int) {
	leaves = nextPow2((capacity + 1) / 2)
	return leaves, bits.TrailingZeros(uint(leaves)) + 1
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
