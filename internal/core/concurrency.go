package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/plan"
	"oblidb/internal/planner"
	"oblidb/internal/storage"
)

// This file is the engine's read-concurrency layer. The database mutex
// is a read/write lock: mutations, DDL and reads the engine partitions
// take the exclusive side; other reads take the shared side plus a
// per-slot execution context from the pool (Config.Workers), so the
// epoch scheduler can run several read slots truly in parallel. Each
// context owns what one concurrent statement must not share — a sealer
// (stateful nonce pool), a tracer, scratch buffers for every table it
// reads, and an oblivious-memory accountant re-budgeted at checkout to
// the parent's unreserved memory so the planner's algorithm picks match
// the serial engine exactly. The catalog itself is resolved through a
// copy-on-write snapshot republished on every DDL, so a reader never
// touches the live table map. See DESIGN.md §16 for the leakage
// argument.

// execCtx is the execution context one statement runs under: either the
// engine's own serial context (exclusive lock held, legacy direct reads)
// or one checked-out read-slot context (shared lock held, reads through
// per-context views).
type execCtx struct {
	db     *DB
	enc    *enclave.Enclave
	serial bool
	snap   *catalogSnap
	views  map[*storage.Flat]*storage.ReadView
}

// input adapts a flat table for the operators under this context. The
// serial context hands the table over directly (byte-identical to the
// pre-concurrency engine, including the trace landing on the table's own
// region); a read-slot context reads through its own view — own
// plaintext scratch, own decode buffer, accesses recorded on the
// context's tracer under the table's name.
func (c *execCtx) input(f *storage.Flat) exec.Input {
	if c.serial {
		return exec.FromFlat(f)
	}
	v, ok := c.views[f]
	if !ok {
		v = f.ReadViewVia(c.enc)
		c.views[f] = v
	}
	return v
}

// lookup resolves a table name: read-slot contexts against their
// immutable catalog snapshot, the serial context against the live map
// (DDL inside a transaction must see its own creations).
func (c *execCtx) lookup(name string) (*Table, error) {
	if c.serial {
		return c.db.lookup(name)
	}
	t, ok := c.snap.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// catalogSnap is one immutable catalog version. Writers republish a
// fresh copy on every catalog change (copy-on-write); readers load the
// pointer once per statement and resolve every name against it.
type catalogSnap struct {
	tables map[string]*Table
	epoch  uint64
}

// publishCatalog bumps the catalog epoch and publishes a fresh snapshot.
// Called with the exclusive lock held, after every catalog change.
func (db *DB) publishCatalog() {
	db.catEpoch++
	tables := make(map[string]*Table, len(db.tables))
	for k, v := range db.tables {
		tables[k] = v
	}
	db.snap.Store(&catalogSnap{tables: tables, epoch: db.catEpoch})
}

// LockStats counts engine lock traffic: acquisitions of each side, and
// how many had to wait (the try-lock failed and the caller blocked).
// Counts of executed statements by kind are conceded leakage already —
// the epoch scheduler's slot stream reveals them — and these counters
// carry no timing, so they are safe to publish (DESIGN.md §13).
type LockStats struct {
	SharedAcquires, ExclusiveAcquires uint64
	SharedWaits, ExclusiveWaits       uint64
}

// lockCounters is the hot-path half of LockStats.
type lockCounters struct {
	sharedAcquires, exclusiveAcquires atomic.Uint64
	sharedWaits, exclusiveWaits       atomic.Uint64
}

// lockWrite takes the exclusive side, counting contention.
func (db *DB) lockWrite() {
	if !db.mu.TryLock() {
		db.lockC.exclusiveWaits.Add(1)
		db.mu.Lock()
	}
	db.lockC.exclusiveAcquires.Add(1)
}

// lockShared takes the shared side, counting contention.
func (db *DB) lockShared() {
	if !db.mu.TryRLock() {
		db.lockC.sharedWaits.Add(1)
		db.mu.RLock()
	}
	db.lockC.sharedAcquires.Add(1)
}

// LockStats reports the engine's lock-contention counters.
func (db *DB) LockStats() LockStats {
	return LockStats{
		SharedAcquires:    db.lockC.sharedAcquires.Load(),
		ExclusiveAcquires: db.lockC.exclusiveAcquires.Load(),
		SharedWaits:       db.lockC.sharedWaits.Load(),
		ExclusiveWaits:    db.lockC.exclusiveWaits.Load(),
	}
}

// begin enters the statement root. A read on an engine with a pool
// takes the shared lock and prices its plan with planner.Parallelism —
// the walk EXPLAIN annotates with, writing nothing, since compiled plans
// are shared. A read whose operators would all run serially checks out a
// read slot whose budget is re-synced to the parent's current
// availability (standing ORAM reservations included, so operator buffer
// sizing matches the serial engine) and whose catalog snapshot is the
// latest published. A read with an operator at P ≥ 2 trades the shared
// side for the exclusive one and runs partitioned on the serial context;
// so does every other statement, exactly the pre-concurrency engine. The
// returned release undoes both.
func (db *DB) begin(root plan.Node) (*execCtx, func()) {
	if db.readCtxs != nil && plan.ReadOnly(root) {
		db.lockShared()
		if planner.Parallelism(root, lockedCatalog{db}, db.enc, db.cfg.Planner, db.Workers()) < 2 {
			ctx := <-db.readCtxs
			ctx.enc.Rebudget(db.enc.Available())
			ctx.snap = db.snap.Load()
			return ctx, func() {
				ctx.snap = nil
				clear(ctx.views) // drop per-statement views (temps would pin their stores)
				db.readCtxs <- ctx
				db.mu.RUnlock()
			}
		}
		db.mu.RUnlock()
	}
	db.lockWrite()
	return db.serialCtx, db.mu.Unlock
}
