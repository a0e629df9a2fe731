// Package enclave simulates the hardware-enclave environment ObliDB runs
// in (§2). It provides the two memories the paper distinguishes:
//
//   - A small *oblivious memory* region inside the enclave whose access
//     patterns the OS cannot observe. The paper budgets this explicitly
//     (≤20 MB in all experiments, §2.2); Enclave meters it in bytes and
//     operators degrade gracefully when it is scarce.
//   - Untrusted memory managed by the OS, where every access is visible to
//     the adversary. Store wraps a block array so that every read and write
//     is recorded by a trace.Tracer and every block is sealed (encrypted +
//     authenticated + revision-bound) before it leaves the enclave.
//
// There is no SGX here; the substitution preserves exactly what the
// paper's algorithms depend on — the visible access sequence, the sealed
// block format, and the oblivious-memory budget — which is argued in
// DESIGN.md §2.
package enclave

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"oblidb/internal/crypt"
	"oblidb/internal/trace"
)

// Config configures a simulated enclave.
type Config struct {
	// ObliviousMemory is the budget, in bytes, of enclave memory assumed
	// safe from access-pattern leakage. The paper uses 20 MB or less in all
	// experiments. Zero means no oblivious memory: only the operators the
	// paper marks "0 Bytes" can then run.
	ObliviousMemory int
	// Tracer, if non-nil, observes every untrusted-memory access. Tests use
	// this to check obliviousness; benchmarks leave it nil.
	Tracer *trace.Tracer
	// Key is the AES-256 data key. If nil a random key is generated,
	// matching the paper's model where the key lives only inside the
	// enclave.
	Key []byte
	// Seed is the root of every SeedFor stream (ORAM leaf assignment).
	// Zero derives a seed from the key so runs are reproducible per key.
	Seed uint64
	// StoreLatency models the cost of one untrusted-memory block access
	// (the OCALL / remote-storage round trip a deployed enclave pays):
	// every Store read and write sleeps this long before touching the
	// block. Zero (the default) keeps untrusted memory at in-process
	// speed. The delay is per access — a function of the traced sequence
	// only, never of data — so it adds no leakage channel. Benchmarks use
	// it to measure latency-hiding concurrency on hardware where sealed
	// blocks would otherwise be CPU-bound.
	StoreLatency time.Duration
	// Fault, if non-nil, is consulted once per untrusted-memory block
	// access and may fail it — the unreliable (not malicious) host of
	// the failure model. Implementations must key their decisions on
	// the access count only, never on data (internal/faultstore does),
	// so injection adds no leakage channel. Inherited by Split and
	// Child contexts so every path to untrusted memory is covered.
	Fault FaultInjector
}

// FaultInjector decides, per untrusted-memory block access, whether
// the host transiently fails it. Access is called after the access is
// traced and accounted (the adversary observes attempts, not
// outcomes) and before the block is touched; returning a non-nil
// error aborts the access with no state change. Implementations must
// be safe for concurrent use and data-independent: the decision may
// depend on how MANY accesses happened, never on what they carried.
type FaultInjector interface {
	Access(write bool) error
}

// DefaultObliviousMemory is the 20 MB budget used throughout the paper's
// evaluation (§2.2).
const DefaultObliviousMemory = 20 << 20

// Enclave is the trusted environment: it owns the data key, the oblivious
// memory accountant, and the seed oblivious data structures draw from.
type Enclave struct {
	sealer *crypt.Sealer
	tracer *trace.Tracer
	// acct is the oblivious-memory accountant. Split workers own their
	// accountant; Child contexts share the parent's, so standing
	// reservations (ORAM stashes, position maps) stay visible to everyone
	// pricing against the parent.
	acct *acct
	key  []byte
	seed uint64
	// io tallies sealed-block traffic through this enclave's boundary.
	// Every derived context shares it, so the engine's tally is the total
	// sealed-block traffic the host observed.
	io *IOStats
	// tids hands out store ids for sealed-block domain separation. It is
	// shared (and atomic) across an enclave and its derived contexts so
	// two of them never seal blocks under the same id.
	tids *atomic.Uint32
	// latency is Config.StoreLatency: the modeled cost of one untrusted
	// block access. Inherited by derived contexts so every path to
	// untrusted memory pays the same toll.
	latency time.Duration
	// fault is Config.Fault: the unreliable-host model. Inherited by
	// derived contexts so every path to untrusted memory can fail, not
	// just the serial engine's.
	fault FaultInjector
}

// acct meters oblivious memory for one budget domain. used and peak are
// atomic so a metrics scrape can read the accountant while worker
// enclaves reserve concurrently, and so enclaves sharing an accountant
// (Child) reserve safely.
type acct struct {
	budget int
	used   atomic.Int64
	peak   atomic.Int64
}

// IOStats counts the sealed blocks and plaintext bytes crossing one
// enclave's boundary to untrusted memory: blocks opened (read +
// authenticated + decrypted) and sealed (encrypted + written). All four
// are functions of the executed access sequence — exactly what the
// untrusted host already observes — so they are safe to publish.
// The counters are atomic: hot paths Add, scrapes Load.
type IOStats struct {
	BlocksOpened, BlocksSealed atomic.Uint64
	BytesOpened, BytesSealed   atomic.Uint64
}

// IOSnapshot is a point-in-time copy of IOStats.
type IOSnapshot struct {
	BlocksOpened, BlocksSealed uint64
	BytesOpened, BytesSealed   uint64
}

// IOStats snapshots the sealed-block I/O tallies this enclave shares
// with every context derived from it.
func (e *Enclave) IOStats() IOSnapshot {
	return IOSnapshot{
		BlocksOpened: e.io.BlocksOpened.Load(),
		BlocksSealed: e.io.BlocksSealed.Load(),
		BytesOpened:  e.io.BytesOpened.Load(),
		BytesSealed:  e.io.BytesSealed.Load(),
	}
}

// New creates a simulated enclave. A zero Config gets the paper's default
// 20 MB oblivious-memory budget and a fresh random key.
func New(cfg Config) (*Enclave, error) {
	if cfg.ObliviousMemory < 0 {
		return nil, fmt.Errorf("enclave: negative oblivious memory budget %d", cfg.ObliviousMemory)
	}
	budget := cfg.ObliviousMemory
	if budget == 0 {
		budget = DefaultObliviousMemory
	}
	key := cfg.Key
	if key == nil {
		key = crypt.NewRandomKey()
	}
	sealer, err := crypt.NewSealer(key)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = binary.LittleEndian.Uint64(key[:8])
	}
	return &Enclave{
		sealer:  sealer,
		tracer:  cfg.Tracer,
		acct:    &acct{budget: budget},
		key:     key,
		seed:    seed,
		io:      new(IOStats),
		tids:    new(atomic.Uint32),
		latency: cfg.StoreLatency,
		fault:   cfg.Fault,
	}, nil
}

// derive builds a context that shares everything with the parent — data
// key, seed, store-id counter, I/O tallies, latency and fault model —
// except its own sealer (the nonce pool is stateful, so a context used
// from another goroutine needs its own) and the tracer and accountant the
// caller hands it. It is the only way to make an Enclave besides New.
func (e *Enclave) derive(tr *trace.Tracer, a *acct) (*Enclave, error) {
	sealer, err := crypt.NewSealer(e.key)
	if err != nil {
		return nil, err
	}
	d := *e
	d.sealer, d.tracer, d.acct = sealer, tr, a
	return &d, nil
}

// Split derives n worker enclaves for pooled concurrent execution
// (partition-parallel operators, read slots). Each worker owns its
// sealer, its tracer — the adversarial view of one core — and an
// accountant holding an equal slice, budget/n, of the parent's currently
// unreserved oblivious memory; callers re-sync it with Rebudget whenever
// they check a worker out. Everything else is derive's shared state.
//
// tracers may be nil (workers run untraced) or hold one tracer per
// worker; obliviousness tests pass per-worker tracers and assert the
// multiset of worker traces is input-independent.
func (e *Enclave) Split(n int, tracers []*trace.Tracer) ([]*Enclave, error) {
	if n < 1 {
		return nil, fmt.Errorf("enclave: cannot split into %d workers", n)
	}
	if tracers != nil && len(tracers) != n {
		return nil, fmt.Errorf("enclave: %d tracers for %d workers", len(tracers), n)
	}
	workers := make([]*Enclave, n)
	share := e.Available() / n
	for i := range workers {
		var tr *trace.Tracer
		if tracers != nil {
			tr = tracers[i]
		}
		w, err := e.derive(tr, &acct{budget: share})
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}
	return workers, nil
}

// Child derives a context that acts as the parent for everything the
// trace and the accountant can see — same tracer and accountant besides
// derive's shared state, so SeedFor-derived PRNG streams (ORAM leaf
// assignment) and standing reservations are the parent's. A structure
// built on a Child behaves byte-for-byte like one built on the parent
// while remaining safe to drive from a different goroutine than the
// parent's other children.
func (e *Enclave) Child() (*Enclave, error) {
	return e.derive(e.tracer, e.acct)
}

// Rebudget resets this enclave's oblivious-memory budget to n bytes. It
// must only be called when no reservations are outstanding — pools of
// Split workers call it at every checkout to re-sync with the parent's
// Available().
func (e *Enclave) Rebudget(n int) {
	if n < 0 {
		n = 0
	}
	e.acct.budget = n
}

// MustNew is New for tests and examples where the config is known good.
func MustNew(cfg Config) *Enclave {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewZeroOblivious creates an enclave whose oblivious memory budget is
// "as good as zero": the paper's 0-OM operators must still run, so the
// accountant permits only reservations of zero bytes.
func NewZeroOblivious(tr *trace.Tracer) *Enclave {
	e := MustNew(Config{Tracer: tr})
	e.acct.budget = 0
	return e
}

// Tracer returns the enclave's tracer (possibly nil).
func (e *Enclave) Tracer() *trace.Tracer { return e.tracer }

// SeedFor derives a stable sub-seed for a named consumer — e.g. one
// ORAM's leaf-assignment PRNG — from the enclave seed. Each oblivious
// structure then draws from its own reproducible stream, so its leaf
// assignments do not depend on how many random draws other structures
// made first (the property trace-pinning tests rely on).
func (e *Enclave) SeedFor(label string) uint64 {
	h := e.seed ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// Reserve claims n bytes of oblivious memory, failing if the budget would
// be exceeded. Callers must pair it with Release.
func (e *Enclave) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("enclave: reserve of negative size %d", n)
	}
	used := e.acct.used.Load()
	if used+int64(n) > int64(e.acct.budget) {
		return fmt.Errorf("enclave: oblivious memory exhausted: want %d bytes, %d of %d in use",
			n, used, e.acct.budget)
	}
	now := e.acct.used.Add(int64(n))
	for {
		peak := e.acct.peak.Load()
		if now <= peak || e.acct.peak.CompareAndSwap(peak, now) {
			return nil
		}
	}
}

// Release returns n bytes of oblivious memory to the pool.
func (e *Enclave) Release(n int) {
	if e.acct.used.Add(-int64(n)) < 0 {
		panic("enclave: release of more oblivious memory than reserved")
	}
}

// Available returns the unreserved oblivious memory in bytes. Operators
// that "use whatever quantity of oblivious memory is made available" (§4)
// size their buffers from this.
func (e *Enclave) Available() int { return e.acct.budget - int(e.acct.used.Load()) }

// Budget returns the total oblivious memory budget in bytes.
func (e *Enclave) Budget() int { return e.acct.budget }

// Used returns the currently reserved oblivious memory in bytes.
func (e *Enclave) Used() int { return int(e.acct.used.Load()) }

// PeakUsed returns the high-water mark of reserved oblivious memory.
func (e *Enclave) PeakUsed() int { return int(e.acct.peak.Load()) }

// hostDelay pays the modeled untrusted-memory access cost (see
// Config.StoreLatency). It runs once per block access, before the
// block is touched, and is a no-op when no latency is configured.
func (e *Enclave) hostDelay() {
	if e.latency > 0 {
		time.Sleep(e.latency)
	}
}

// hostAccess is the per-access untrusted-host model: the latency toll
// followed by the fault injector's verdict. It runs after the access
// is traced (the adversary sees attempts) and before the block is
// touched, so a failed access changes no store state.
func (e *Enclave) hostAccess(write bool) error {
	e.hostDelay()
	if e.fault != nil {
		return e.fault.Access(write)
	}
	return nil
}

// nextTableID hands out unique ids for sealed-block domain separation.
func (e *Enclave) nextTableID() uint32 {
	return e.tids.Add(1) - 1
}
