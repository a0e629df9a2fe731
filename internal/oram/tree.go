package oram

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"oblidb/internal/enclave"
)

// tree is the bucket-tree core both schemes embed: the untrusted store
// and its geometry, the in-enclave stash, the leaf-assignment stream,
// and the scratch an access reuses.
type tree struct {
	enc       *enclave.Enclave
	store     *enclave.Store
	capacity  int // number of logical blocks
	blockSize int // logical block payload bytes
	levels    int // tree levels (path length)
	leaves    int // number of leaf buckets, a power of two
	stash     map[uint32]stashEntry
	rng       *rand.Rand // dedicated leaf-assignment stream (see Options.Seed)
	readBuf   []byte     // reusable store read buffer
	pathBuf   []int      // reusable root-to-leaf bucket index buffer
	dummyBuf  []byte     // DummyAccess result sink
	free      [][]byte   // recycled stash block buffers
}

// stashEntry is an in-enclave copy of a block together with its currently
// assigned leaf. Keeping the leaf here lets eviction proceed without
// consulting the position map, which matters for the recursive variant
// (one child-ORAM access per parent access, not one per stash block).
type stashEntry struct {
	leaf uint32
	data []byte
}

// newTree sizes a bucket tree for capacity blocks and creates its store:
// storeBlocks untrusted blocks of storeBlockBytes each per bucket. Its
// leaf stream is seeded from Options.Seed, or when that is zero from the
// enclave seed and the store name, so leaf assignment is reproducible per
// (engine seed, table) whatever else draws from the enclave's PRNG.
func newTree(e *enclave.Enclave, name string, capacity, blockSize, storeBlocks, storeBlockBytes int, opts Options) (tree, error) {
	if capacity <= 0 || blockSize <= 0 {
		return tree{}, fmt.Errorf("oram: invalid capacity=%d blockSize=%d", capacity, blockSize)
	}
	leaves, levels := treeGeometry(capacity)
	store, err := e.NewStore(name, (2*leaves-1)*storeBlocks, storeBlockBytes)
	if err != nil {
		return tree{}, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = e.SeedFor(name)
	}
	return tree{
		enc:       e,
		store:     store,
		capacity:  capacity,
		blockSize: blockSize,
		levels:    levels,
		leaves:    leaves,
		stash:     make(map[uint32]stashEntry),
		rng:       rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}, nil
}

// Capacity returns the number of logical blocks.
func (t *tree) Capacity() int { return t.capacity }

// BlockSize returns the logical block payload size.
func (t *tree) BlockSize() int { return t.blockSize }

// Levels returns the path length of one access.
func (t *tree) Levels() int { return t.levels }

// StashSize returns the current number of blocks in the stash; tests
// verify it stays small.
func (t *tree) StashSize() int { return len(t.stash) }

// UntrustedBytes returns the untrusted memory the ORAM occupies, the ~4×
// overhead of Figure 2's "Index" column.
func (t *tree) UntrustedBytes() int { return t.store.SizeBytes() }

// Store exposes the untrusted store for adversary tests.
func (t *tree) Store() *enclave.Store { return t.store }

// newBlockBuf returns a zeroed block-sized buffer, recycling buffers of
// evicted stash entries so the steady-state stash churns no allocations.
func (t *tree) newBlockBuf() []byte {
	if n := len(t.free); n > 0 {
		buf := t.free[n-1]
		t.free = t.free[:n-1]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]byte, t.blockSize)
}

// stashed returns block id's stash entry, or a zeroed block when the
// stash does not hold it: a block never written reads as zeroes.
func (t *tree) stashed(id uint32) stashEntry {
	entry, ok := t.stash[id]
	if !ok {
		entry.data = t.newBlockBuf()
	}
	return entry
}

// stashBlock copies a block read from the store into the stash under its
// leaf, unless the stash holds it already: the stash copy is
// authoritative, the store's stale.
func (t *tree) stashBlock(id, leaf uint32, data []byte) {
	if _, dup := t.stash[id]; !dup {
		blk := t.newBlockBuf()
		copy(blk, data)
		t.stash[id] = stashEntry{leaf: leaf, data: blk}
	}
}

// pathBuckets returns bucket indices from root to the given leaf. Buckets
// are heap-ordered: root 0, children of i at 2i+1 and 2i+2. The returned
// slice is the tree's scratch, valid until the next call.
func (t *tree) pathBuckets(leaf int) []int {
	if cap(t.pathBuf) < t.levels {
		t.pathBuf = make([]int, t.levels)
	}
	path := t.pathBuf[:t.levels]
	idx := t.leaves - 1 + leaf
	for l := t.levels - 1; l >= 0; l-- {
		path[l] = idx
		idx = (idx - 1) / 2
	}
	return path
}

// bucketAtLevel returns the bucket index at the given level on the path to
// leaf (level 0 = root).
func (t *tree) bucketAtLevel(leaf, level int) int {
	idx := t.leaves - 1 + leaf
	for l := t.levels - 1; l > level; l-- {
		idx = (idx - 1) / 2
	}
	return idx
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
