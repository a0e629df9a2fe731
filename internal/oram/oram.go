// Package oram implements Path ORAM (Stefanov et al., CCS'13), the
// oblivious RAM scheme ObliDB instantiates (§3.2, Appendix B), and Ring
// ORAM (Ring), the scheme the engine's indexes use. An ORAM stores
// fixed-size logical blocks in untrusted memory such that any two access
// sequences of equal length are indistinguishable: every Path ORAM access
// reads and rewrites one full root-to-leaf path of a bucket tree, and the
// accessed block is remapped to a fresh random leaf.
//
// The client state — position map and stash — lives inside the enclave.
// The in-enclave position map charges the enclave's oblivious-memory
// budget PosBytesPerBlock (4 B) per block, the paper's 8 B per indexed
// row (§3.3); Path ORAM's recursive variant (Appendix B) stores the map
// in a second Path ORAM, trading speed for a small in-enclave map.
//
// Path ORAM's access is not fault-atomic: it assigns the block's new leaf
// before it reads the old path, so a store fault mid-access can strand
// the block. It therefore serves only state that dies with a failed
// statement — the per-statement temporary of a naive selection — and the
// baselines (package hirb, the recursion ablation). Every ORAM that holds
// stored data is a Ring, whose accesses a fault cannot lose.
package oram

import (
	"encoding/binary"
	"fmt"

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

// ORAM is a Path ORAM over an enclave-managed untrusted store.
type ORAM struct {
	tree
	pos      posMap
	slotSize int
	plainBuf []byte // reusable bucket buffer for eviction
}

// Options configures ORAM construction.
type Options struct {
	// Recursive stores a Path ORAM's position map in a second Path ORAM
	// of 256 B blocks (Appendix B) instead of charging PosBytesPerBlock
	// of oblivious memory per block. NewRing rejects it: a ring's map is
	// always in the enclave.
	Recursive bool
	// Seed seeds this ORAM's private leaf-assignment PRNG. Zero derives a
	// stable seed from the enclave seed and the store name, so leaf
	// assignment is reproducible per (engine seed, table) regardless of
	// what other structures draw from the enclave's shared PRNG.
	Seed uint64
}

// New creates an ORAM holding capacity logical blocks of blockSize bytes.
// All blocks initially read as zeroes. Leaves ≈ capacity/2 give the ~4×
// slot overhead the paper reports for its oblivious indexes (§3.3) while
// Z=4 keeps the stash bounded in practice.
func New(e *enclave.Enclave, name string, capacity, blockSize int, opts Options) (*ORAM, error) {
	slotSize := 8 + blockSize
	t, err := newTree(e, name, capacity, blockSize, 1, Z*slotSize, opts)
	if err != nil {
		return nil, err
	}
	o := &ORAM{tree: t, slotSize: slotSize, plainBuf: make([]byte, Z*slotSize)}
	if opts.Recursive {
		o.pos, err = newRecursiveMap(e, name+".posmap", capacity, o.leaves, o.rng)
	} else {
		o.pos, err = newPlainMap(e, capacity, o.leaves, o.rng)
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// Close releases the ORAM's oblivious-memory reservations. Closing twice
// is harmless: a map's release is idempotent.
func (o *ORAM) Close() { o.pos.release() }

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
	entry := o.stashed(uint32(id))
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
		o.stashBlock(idPlus-1, binary.LittleEndian.Uint32(plain[off+4:off+8]), plain[off+8:off+8+o.blockSize])
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
// blocks (§3.2), at less than the cost of the full ORAM protocol. A block
// read from a bucket is valid only until fn returns.
func (o *ORAM) RawScan(fn func(id int, data []byte) error) error {
	seen := make(map[uint32]bool, len(o.stash))
	for id, entry := range o.stash {
		seen[id] = true
		if err := fn(int(id), entry.data); err != nil {
			return err
		}
	}
	for b := 0; b < o.store.Len(); b++ {
		plain, err := o.store.ReadInto(b, o.readBuf)
		if err != nil {
			return err
		}
		o.readBuf = plain
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
