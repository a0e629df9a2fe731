package oram

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"oblidb/internal/enclave"
)

// posMap maps logical block ids to their assigned leaf. getSet returns the
// current leaf and atomically installs a new one — a single operation so
// the recursive variant costs exactly one child-ORAM access per parent
// access.
type posMap interface {
	getSet(id int, newLeaf uint32) (uint32, error)
	release()
}

// mapBlockSize is the block size of the recursive map's child ORAM: 64
// entries per block.
const mapBlockSize = 256

// plainMap keeps the whole map in enclave oblivious memory, charging
// PosBytesPerBlock per block against the budget.
type plainMap struct {
	enc      *enclave.Enclave
	leaves   []uint32
	reserved int
}

func newPlainMap(e *enclave.Enclave, capacity, numLeaves int, rng *rand.Rand) (*plainMap, error) {
	reserved := capacity * PosBytesPerBlock
	if err := e.Reserve(reserved); err != nil {
		return nil, fmt.Errorf("oram: position map for %d blocks: %w", capacity, err)
	}
	m := &plainMap{enc: e, leaves: make([]uint32, capacity), reserved: reserved}
	for i := range m.leaves {
		m.leaves[i] = uint32(rng.IntN(numLeaves))
	}
	return m, nil
}

func (m *plainMap) getSet(id int, newLeaf uint32) (uint32, error) {
	old := m.leaves[id]
	m.leaves[id] = newLeaf
	return old, nil
}

func (m *plainMap) release() {
	if m.reserved > 0 {
		m.enc.Release(m.reserved)
		m.reserved = 0
	}
}

// recursiveMap stores position-map entries packed into the blocks of a
// child ORAM (Appendix B). One layer of recursion suffices in practice:
// "a 10MB position map ... can support 1.1 million records"; the child's
// own (plain) map is smaller than the parent's by the pack factor.
type recursiveMap struct {
	child   *ORAM
	perBlk  int
	scratch []byte
}

func newRecursiveMap(e *enclave.Enclave, name string, capacity, numLeaves int, rng *rand.Rand) (*recursiveMap, error) {
	perBlk := mapBlockSize / 4
	numBlocks := (capacity + perBlk - 1) / perBlk
	// The child ORAM draws its leaf assignments from its own stream,
	// seeded deterministically from the parent's.
	childSeed := rng.Uint64()
	if childSeed == 0 {
		childSeed = 1
	}
	child, err := New(e, name, numBlocks, mapBlockSize, Options{Seed: childSeed})
	if err != nil {
		return nil, err
	}
	m := &recursiveMap{child: child, perBlk: perBlk, scratch: make([]byte, mapBlockSize)}
	// Initialize every entry to a uniformly random leaf, as the plain map
	// does. Entry values are stored +1 so a zero word means "unassigned"
	// and is lazily randomized on first touch — but bulk-initializing here
	// keeps the first accesses uniform too.
	buf := make([]byte, mapBlockSize)
	for b := 0; b < numBlocks; b++ {
		for i := 0; i < perBlk; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(rng.IntN(numLeaves))+1)
		}
		if _, err := child.Access(OpWrite, b, buf); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *recursiveMap) getSet(id int, newLeaf uint32) (uint32, error) {
	blk, off := id/m.perBlk, (id%m.perBlk)*4
	var old uint32
	_, err := m.child.UpdateInto(blk, m.scratch, func(data []byte) []byte {
		old = binary.LittleEndian.Uint32(data[off : off+4])
		binary.LittleEndian.PutUint32(data[off:off+4], newLeaf+1)
		return data
	})
	if err != nil {
		return 0, err
	}
	if old == 0 {
		// Unreachable after bulk init, but keep the lazy path correct.
		return newLeaf, nil
	}
	return old - 1, nil
}

func (m *recursiveMap) release() {
	m.child.Close()
}
