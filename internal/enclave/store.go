package enclave

import (
	"fmt"

	"oblidb/internal/crypt"
	"oblidb/internal/oberr"
	"oblidb/internal/trace"
)

// authError types a sealed-block authentication failure: the MALICIOUS
// host of the threat model, as opposed to the merely unreliable one
// (CodeStoreFault). Never retriable.
func authError(store string, i int, err error) error {
	return oberr.Wrapf(oberr.CodeAuth, err,
		"enclave: store %q block %d (tampering or rollback detected)", store, i)
}

// Store is a fixed-block-size array in untrusted memory. It is the only
// way data leaves the enclave: every Read/Write is recorded by the tracer
// (the adversary's view) and every block is sealed with AES-GCM bound to
// (store id, block index, revision).
//
// The enclave-side revision map is trusted metadata — the paper keeps "a
// copy of which ObliDB also stores inside the enclave" (§3) — so a block
// replayed from an earlier state fails authentication on the next read.
type Store struct {
	enclave *Enclave
	region  trace.Region
	id      uint32
	bsize   int // plaintext block size
	blocks  [][]byte
	revs    []uint64
}

// NewStore allocates a store of n sealed blocks of the given plaintext
// block size, initialized to all-zero plaintext. Allocation writes every
// block once, which is itself data-independent.
func (e *Enclave) NewStore(name string, n, blockSize int) (*Store, error) {
	if n < 0 || blockSize <= 0 {
		return nil, fmt.Errorf("enclave: invalid store dimensions n=%d blockSize=%d", n, blockSize)
	}
	s := &Store{
		enclave: e,
		id:      e.nextTableID(),
		bsize:   blockSize,
		blocks:  make([][]byte, n),
		revs:    make([]uint64, n),
	}
	if e.tracer != nil {
		s.region = e.tracer.Region(name)
	}
	zero := make([]byte, blockSize)
	for i := range s.blocks {
		s.blocks[i] = e.sealer.Seal(s.id, uint32(i), 0, zero)
	}
	e.io.BlocksSealed.Add(uint64(n))
	e.io.BytesSealed.Add(uint64(n) * uint64(blockSize))
	return s, nil
}

// Len returns the number of blocks.
func (s *Store) Len() int { return len(s.blocks) }

// BlockSize returns the plaintext block size.
func (s *Store) BlockSize() int { return s.bsize }

// Region returns the trace region of this store.
func (s *Store) Region() trace.Region { return s.region }

// Read fetches block i into the enclave: the access is traced, then the
// sealed block is authenticated against its current revision and
// decrypted. The returned slice is a fresh copy owned by the caller.
func (s *Store) Read(i int) ([]byte, error) {
	return s.ReadInto(i, nil)
}

// ReadInto is Read decrypting into dst's capacity: when dst can hold one
// plaintext block nothing is allocated, so steady-state scans that reuse
// one scratch block pay zero allocations per block. The returned slice
// aliases dst (or a fresh buffer when dst was too small).
func (s *Store) ReadInto(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(s.blocks) {
		return nil, fmt.Errorf("enclave: store %q read out of range: %d of %d", s.region.Name(), i, len(s.blocks))
	}
	s.enclave.tracer.Record(s.region, trace.Read, i)
	s.enclave.io.BlocksOpened.Add(1)
	s.enclave.io.BytesOpened.Add(uint64(s.bsize))
	if err := s.enclave.hostAccess(false); err != nil {
		return nil, fmt.Errorf("enclave: store %q block %d: %w", s.region.Name(), i, err)
	}
	pt, err := s.enclave.sealer.OpenInto(dst, s.id, uint32(i), s.revs[i], s.blocks[i])
	if err != nil {
		return nil, authError(s.region.Name(), i, err)
	}
	return pt, nil
}

// ReadIntoVia is ReadInto with the access made through a caller-supplied
// enclave and recorded against its tracer and region r instead of the
// store's own. Partition-parallel workers and read slots read a shared
// table through it so that each one's adversarial view — the per-core
// access stream — lands on its own tracer. Concurrent calls are safe as
// long as no goroutine writes the store meanwhile: decryption is
// stateless and the revision map is only read. via may be any context
// derived from the store's enclave (Split, Child); sealed blocks
// interoperate because derived contexts share the key. Each caller owns
// its scratch dst, so concurrent scans stay allocation-free per block.
func (s *Store) ReadIntoVia(via *Enclave, r trace.Region, i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(s.blocks) {
		return nil, fmt.Errorf("enclave: store %q read out of range: %d of %d", s.region.Name(), i, len(s.blocks))
	}
	via.tracer.Record(r, trace.Read, i)
	via.io.BlocksOpened.Add(1)
	via.io.BytesOpened.Add(uint64(s.bsize))
	if err := via.hostAccess(false); err != nil {
		return nil, fmt.Errorf("enclave: store %q block %d: %w", s.region.Name(), i, err)
	}
	pt, err := via.sealer.OpenInto(dst, s.id, uint32(i), s.revs[i], s.blocks[i])
	if err != nil {
		return nil, authError(s.region.Name(), i, err)
	}
	return pt, nil
}

// Write seals plaintext into block i under the next revision and stores
// it. The plaintext must be exactly one block. Writing the same logical
// content produces fresh ciphertext, so dummy writes are indistinguishable
// from real ones — the tracer records both identically.
func (s *Store) Write(i int, plaintext []byte) error {
	if i < 0 || i >= len(s.blocks) {
		return fmt.Errorf("enclave: store %q write out of range: %d of %d", s.region.Name(), i, len(s.blocks))
	}
	if len(plaintext) != s.bsize {
		return fmt.Errorf("enclave: store %q write of %d bytes to %d-byte blocks", s.region.Name(), len(plaintext), s.bsize)
	}
	s.enclave.tracer.Record(s.region, trace.Write, i)
	s.enclave.io.BlocksSealed.Add(1)
	s.enclave.io.BytesSealed.Add(uint64(len(plaintext)))
	if err := s.enclave.hostAccess(true); err != nil {
		return fmt.Errorf("enclave: store %q block %d: %w", s.region.Name(), i, err)
	}
	s.revs[i]++
	// Re-seal into the slot's existing ciphertext buffer: the sealed size
	// is fixed, so steady-state writes (every dummy write included)
	// allocate nothing.
	s.blocks[i] = s.enclave.sealer.SealTo(s.blocks[i][:0], s.id, uint32(i), s.revs[i], plaintext)
	return nil
}

// RMW is the read-modify-write cycle packed tables need: it reads block
// i into dst's capacity, hands the plaintext to fn for in-place
// mutation, and writes the (possibly updated) block back under the next
// revision. The trace is always exactly one read then one write,
// whatever fn does — a packed dummy write re-seals one block, not R
// rows. The returned slice is the plaintext buffer for reuse on the
// next call.
func (s *Store) RMW(i int, dst []byte, fn func(plain []byte) error) ([]byte, error) {
	plain, err := s.ReadInto(i, dst)
	if err != nil {
		return dst, err
	}
	if err := fn(plain); err != nil {
		// fn failed possibly mid-mutation: abort without writing the torn
		// plaintext back. Errors abort the whole statement, so the
		// truncated trace carries nothing data-dependent beyond the
		// failure itself (which the caller surfaces anyway).
		return plain, err
	}
	return plain, s.Write(i, plain)
}

// WriteVia is Write with the access recorded against a caller-supplied
// tracer and the sealing done by the caller's enclave (same key, so the
// ciphertext interoperates). Partition-parallel workers use it to fill
// DISJOINT block ranges of one shared output store concurrently: writes
// to different indices touch different revision and block slots, so no
// two workers may ever write the same index, and nothing may read the
// store until the workers join.
func (s *Store) WriteVia(via *Enclave, r trace.Region, i int, plaintext []byte) error {
	if i < 0 || i >= len(s.blocks) {
		return fmt.Errorf("enclave: store %q write out of range: %d of %d", s.region.Name(), i, len(s.blocks))
	}
	if len(plaintext) != s.bsize {
		return fmt.Errorf("enclave: store %q write of %d bytes to %d-byte blocks", s.region.Name(), len(plaintext), s.bsize)
	}
	via.tracer.Record(r, trace.Write, i)
	via.io.BlocksSealed.Add(1)
	via.io.BytesSealed.Add(uint64(len(plaintext)))
	if err := via.hostAccess(true); err != nil {
		return fmt.Errorf("enclave: store %q block %d: %w", s.region.Name(), i, err)
	}
	s.revs[i]++
	s.blocks[i] = via.sealer.SealTo(s.blocks[i][:0], s.id, uint32(i), s.revs[i], plaintext)
	return nil
}

// SizeBytes returns the untrusted memory consumed by the store, including
// sealing overhead. This is the "size of data structures" the paper
// concedes as leakage.
func (s *Store) SizeBytes() int {
	return len(s.blocks) * crypt.SealedSize(s.bsize)
}

// --- Adversary interface -------------------------------------------------
//
// The methods below model the malicious OS of the threat model (§2.2).
// They bypass the enclave: tests use them to mount the attacks the paper
// claims to catch.

// AdversaryRawBlock returns the sealed bytes of block i as stored in
// untrusted memory.
func (s *Store) AdversaryRawBlock(i int) []byte {
	cp := make([]byte, len(s.blocks[i]))
	copy(cp, s.blocks[i])
	return cp
}

// AdversarySetRawBlock overwrites the sealed bytes of block i without the
// enclave's knowledge — arbitrary tampering.
func (s *Store) AdversarySetRawBlock(i int, raw []byte) {
	cp := make([]byte, len(raw))
	copy(cp, raw)
	s.blocks[i] = cp
}

// AdversarySwapBlocks exchanges the sealed contents of two slots —
// shuffling table contents.
func (s *Store) AdversarySwapBlocks(i, j int) {
	s.blocks[i], s.blocks[j] = s.blocks[j], s.blocks[i]
}
