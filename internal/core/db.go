// Package core is the ObliDB engine: tables stored by the flat and/or
// indexed methods (§3), the oblivious operators of §4 dispatched through
// the query planner of §5, integrity checking throughout, and the padding
// mode of §7.2. It is the paper's primary contribution assembled into a
// database; the oblidb root package re-exports it as the public API.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/indexed"
	"oblidb/internal/planner"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// StorageKind selects a table's storage method(s) (§3): flat, indexed, or
// both — "each table can be stored using one or both methods, similarly to
// how administrators can decide to create indexes in traditional
// databases".
type StorageKind int

const (
	// KindFlat stores the table as contiguous sealed blocks, always
	// scanned in full.
	KindFlat StorageKind = iota
	// KindIndexed stores the table in an oblivious B+ tree over ORAM.
	KindIndexed
	// KindBoth maintains both representations, paying double on writes to
	// serve both point and analytic reads well (§3.3).
	KindBoth
)

// String names the storage kind.
func (k StorageKind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindIndexed:
		return "indexed"
	case KindBoth:
		return "both"
	}
	return fmt.Sprintf("StorageKind(%d)", int(k))
}

// PaddingConfig enables the paper's padding mode: "all intermediate
// results are padded to a chosen size and query optimization is not
// applied" (§2.3).
type PaddingConfig struct {
	// Enabled turns padding mode on.
	Enabled bool
	// PadRows is the size every intermediate and result table is padded
	// to.
	PadRows int
	// PadGroups is the group count grouped aggregation pads to (the
	// "maximum supported number of groups", §7.2).
	PadGroups int
}

// Config configures a database.
type Config struct {
	// ObliviousMemory is the enclave's oblivious memory budget in bytes
	// (default: the paper's 20 MB).
	ObliviousMemory int
	// Tracer observes all untrusted accesses (tests).
	Tracer *trace.Tracer
	// Key is the AES-256 data key (random if nil).
	Key []byte
	// Seed seeds enclave randomness (derived from key if zero).
	Seed uint64
	// Planner tunes operator choice; Planner.DisableContinuous removes
	// the Continuous algorithm's contiguity leakage.
	Planner planner.Config
	// Padding configures padding mode.
	Padding PaddingConfig
	// Workers sizes the engine's one pool of enclave contexts: 0 or 1
	// keeps the engine serial, -1 uses GOMAXPROCS. Above 1 a pooled
	// context is a partition worker while an exclusive-side statement
	// splits an operator (the planner picks the count from public sizes
	// alone), and a read slot while a read that does not split runs
	// under the shared side (see DB). The pool size is public
	// configuration, like the epoch cadence; the server fans each
	// epoch's read runs out to this many goroutines.
	Workers int
	// RowsPerBlock is the packing factor R: how many records each sealed
	// block holds. Every full-table pass costs one AEAD open/seal per
	// block, so packing divides the crypto and trace cost of scans by R.
	// 0 (the default) sizes flat and intermediate blocks to ~4 KiB of
	// plaintext per table, and index record blocks near a B+ tree node
	// (indexed.DefaultRowsPerBlock); an explicit value applies to both;
	// 1 reproduces the paper's one-record-per-block geometry. R is public
	// geometry, like table sizes — traces depend only on the pair
	// (capacity, R).
	RowsPerBlock int
	// WorkerTracers, if non-nil, must hold one tracer per pooled context
	// (Workers of them); each context's untrusted accesses — the
	// adversarial view of one core — are recorded there, whether it ran
	// a partition or a read slot. Tests assert the multiset of worker
	// traces is input-independent (trace.MultisetFingerprint) and the
	// multiset of read-slot traces interleaving-independent
	// (trace.EventMultisetFingerprint).
	WorkerTracers []*trace.Tracer
	// StoreLatency models the cost of one untrusted-memory block access
	// (see enclave.Config.StoreLatency). Zero keeps untrusted memory at
	// in-process speed; benchmarks set it to measure latency-hiding read
	// concurrency.
	StoreLatency time.Duration
	// Fault, if non-nil, models the unreliable untrusted host: it is
	// consulted once per sealed-block access and may transiently fail
	// it (see enclave.Config.Fault and internal/faultstore). Faulted
	// mutations roll back through the undo log and surface as typed
	// retriable errors; the chaos difftests drive entire workloads
	// through this knob.
	Fault enclave.FaultInjector
}

// DB is an ObliDB database: an enclave plus its tables.
//
// Concurrency: the database lock is a read/write mutex. Mutations, DDL
// and EXPLAIN take the exclusive side — one at a time, exactly the seed
// engine — and run on the engine's own context, whose operators partition over the pool of Config.Workers contexts. A read
// statement takes the shared side first and prices its plan with
// planner.Parallelism, the walk behind EXPLAIN's P=. If some operator
// would run at P ≥ 2, it trades the shared side for the exclusive one
// and runs partitioned; every other read checks out one pooled context
// as a read slot, so up to Workers small reads run truly in parallel.
// A read slot carries its own enclave context (sealer, tracer,
// accountant) and its own per-table read views, while ORAM-backed index
// access — which mutates stash and position map even on reads —
// serializes behind a per-table lock (Table.idxMu). The catalog is
// resolved against a copy-on-write snapshot republished on every DDL.
// With Workers ≤ 1 reads also take the exclusive side and run on the
// engine's own context, preserving the serial engine's byte-identical
// traces. Statements, reads and writes alike, are plans: ExecutePlan
// and ExecutePlanBatch take the lock once per statement or write run
// (transactions commit as groups of a run), and DDL, BulkLoad and the
// journal methods lock for themselves. Everything they call runs
// unlocked, so the mutex is never taken reentrantly. See DESIGN.md §9
// and §16.
type DB struct {
	mu     sync.RWMutex
	enc    *enclave.Enclave
	cfg    Config
	tables map[string]*Table
	// workers is the pool of Split contexts (nil unless Workers > 1);
	// readCtxs hands the same contexts out as read slots. Partition
	// workers run only under the exclusive side, read slots only under
	// the shared side, so no context serves both at once.
	workers  []*enclave.Enclave
	readCtxs chan *execCtx
	// snap is the latest published catalog snapshot; serialCtx is the
	// engine's own context for exclusive-side statements; lockC counts
	// lock traffic for the contention metrics.
	snap      atomic.Pointer[catalogSnap]
	serialCtx *execCtx
	lockC     lockCounters
	// planMu guards LastPlan and picks: read slots record planner
	// decisions while holding only the shared database lock.
	planMu sync.Mutex
	tmpSeq atomic.Int64
	// wal, when attached, journals every applied mutation; the staged
	// batch commits durably when the statement (or explicit transaction)
	// does.
	wal *wal.Log
	// undo records how to reverse the open bracket's applied but
	// uncommitted changes (see wal.go); pending holds the flat mutations
	// it has queued but not yet applied (see batch.go).
	undo    []undoRec
	pending []flatOp
	// broken latches when fault containment itself fails — a rollback
	// hit a second store fault — so the in-memory state can no longer
	// be trusted. Every subsequent statement is refused with a typed
	// CodeEngineFailed error; the remedy is recovery from the journal
	// on a fresh engine (see wal.go and DESIGN.md §17). Written under
	// the exclusive lock; read under either side.
	broken error
	// LastPlan records the most recent planner decisions, exposed for the
	// planner-effectiveness experiments (Figure 13/14). It is written
	// under the database mutex; read it only while no other goroutine is
	// running queries (the experiments are single-threaded).
	LastPlan PlanInfo
	// picks tallies every runtime operator-algorithm decision (guarded
	// by mu); PlanStats reports a copy.
	picks PickStats
	// catEpoch counts catalog changes (CreateTable/DropTable). Compiled
	// plans cache catalog-derived decisions — access paths, join splits
	// — so plan caches key their entries to the epoch and recompile
	// after DDL instead of replaying stale decisions. It lives here, on
	// the engine that owns the catalog, so DDL through any surface (SQL
	// or the embedded-engine API) invalidates alike.
	catEpoch uint64
}

// CatalogEpoch reports the current catalog version; it changes exactly
// when CreateTable or DropTable succeeds. It reads the published
// snapshot, so it never blocks behind a running statement.
func (db *DB) CatalogEpoch() uint64 {
	return db.snap.Load().epoch
}

// PickStats counts the planner's runtime algorithm picks — one tally
// per operator execution, keyed by the chosen variant. Everything here
// is already-conceded plan leakage (§2.3), which is why the server may
// publish it over the wire.
type PickStats struct {
	// Select and Join count picks per algorithm name.
	Select map[string]uint64
	Join   map[string]uint64
	// Sorts and Limits count oblivious ORDER BY and LIMIT executions.
	Sorts, Limits uint64
}

// clone deep-copies the counters.
func (p PickStats) clone() PickStats {
	out := PickStats{Sorts: p.Sorts, Limits: p.Limits}
	if p.Select != nil {
		out.Select = make(map[string]uint64, len(p.Select))
		for k, v := range p.Select {
			out.Select[k] = v
		}
	}
	if p.Join != nil {
		out.Join = make(map[string]uint64, len(p.Join))
		for k, v := range p.Join {
			out.Join[k] = v
		}
	}
	return out
}

// PlanStats reports the engine's per-algorithm pick counters.
func (db *DB) PlanStats() PickStats {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	return db.picks.clone()
}

// pickSelect, pickJoin, pickSort, and pickLimit tally one runtime
// algorithm decision each; planMu makes them safe from read slots.
func (db *DB) pickSelect(name string) {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if db.picks.Select == nil {
		db.picks.Select = make(map[string]uint64)
	}
	db.picks.Select[name]++
}

func (db *DB) pickJoin(name string) {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if db.picks.Join == nil {
		db.picks.Join = make(map[string]uint64)
	}
	db.picks.Join[name]++
}

func (db *DB) pickSort() {
	db.planMu.Lock()
	db.picks.Sorts++
	db.planMu.Unlock()
}

func (db *DB) pickLimit() {
	db.planMu.Lock()
	db.picks.Limits++
	db.planMu.Unlock()
}

// setLastPlan records the most recent planner decisions under planMu;
// setLastJoin updates just the join pick (joins run select sub-plans
// first, which overwrite the whole record).
func (db *DB) setLastPlan(p PlanInfo) {
	db.planMu.Lock()
	db.LastPlan = p
	db.planMu.Unlock()
}

func (db *DB) setLastJoin(alg exec.JoinAlgorithm) {
	db.planMu.Lock()
	db.LastPlan.JoinAlg = alg
	db.planMu.Unlock()
}

// IOStats snapshots the engine's sealed-block I/O tallies: the total
// sealed-block traffic the host observed, which every pooled context and
// index child adds to.
func (db *DB) IOStats() enclave.IOSnapshot { return db.enc.IOStats() }

// StorageGeomStats describes the flat tables at one packing geometry
// (rows-per-block value): counts of tables, sealed blocks, live rows,
// and untrusted bytes including sealing overhead. All public sizes.
type StorageGeomStats struct {
	Tables, Blocks, Rows int
	UntrustedBytes       int
}

// StorageStats reports flat-storage gauges grouped by packing geometry
// R. The key set is the distinct R values in use — a small closed set
// (the configured knob or the per-schema ~4 KiB default), never
// data-derived.
func (db *DB) StorageStats() map[int]StorageGeomStats {
	db.lockWrite()
	defer db.mu.Unlock()
	out := make(map[int]StorageGeomStats)
	for _, t := range db.tables {
		if t.flat == nil {
			continue // indexed-only tables live in ORAM, counted via IOStats
		}
		g := out[t.flat.RowsPerBlock()]
		g.Tables++
		g.Blocks += t.flat.NumBlocks()
		g.Rows += t.flat.NumRows()
		g.UntrustedBytes += t.flat.Store().SizeBytes()
		out[t.flat.RowsPerBlock()] = g
	}
	return out
}

// PlanInfo reports which physical operators the planner chose — exactly
// the information the paper concedes a query plan leaks (§2.3).
type PlanInfo struct {
	SelectAlg exec.SelectAlgorithm
	JoinAlg   exec.JoinAlgorithm
	UsedIndex bool
	Stats     planner.SelectStats
}

// Open creates a database inside a fresh simulated enclave.
func Open(cfg Config) (*DB, error) {
	if cfg.Padding.Enabled && cfg.Padding.PadRows <= 0 {
		return nil, fmt.Errorf("core: padding mode needs a positive PadRows")
	}
	n := cfg.Workers
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	enc, err := enclave.New(enclave.Config{
		ObliviousMemory: cfg.ObliviousMemory,
		Tracer:          cfg.Tracer,
		Key:             cfg.Key,
		Seed:            cfg.Seed,
		StoreLatency:    cfg.StoreLatency,
		Fault:           cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{enc: enc, cfg: cfg, tables: make(map[string]*Table)}
	db.serialCtx = &execCtx{db: db, enc: enc, serial: true}
	if n > 1 {
		pool, err := enc.Split(n, cfg.WorkerTracers)
		if err != nil {
			return nil, err
		}
		db.workers = pool
		db.readCtxs = make(chan *execCtx, n)
		for _, w := range pool {
			db.readCtxs <- &execCtx{db: db, enc: w, views: make(map[*storage.Flat]*storage.ReadView)}
		}
	} else if cfg.WorkerTracers != nil {
		return nil, fmt.Errorf("core: WorkerTracers set on a serial engine")
	}
	db.snap.Store(&catalogSnap{tables: map[string]*Table{}})
	return db, nil
}

// Workers reports the pool size (1 when serial).
func (db *DB) Workers() int { return max(1, len(db.workers)) }

// MustOpen is Open for tests and examples with known-good configs.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Enclave exposes the underlying enclave (budget accounting, tracing).
func (db *DB) Enclave() *enclave.Enclave { return db.enc }

// Table is one named table with its storage representations.
type Table struct {
	name     string
	schema   *table.Schema
	kind     StorageKind
	flat     *storage.Flat
	index    *indexed.Table
	keyCol   int  // indexed column; -1 if none
	oblivIn  bool // inserts scan obliviously rather than appending
	capacity int  // creation capacity (flat growth is read live)
	// idxMu serializes index access from concurrent read slots: Ring
	// ORAM mutates its stash and position map even on reads, so index
	// reads are exclusive per table while flat reads of other tables
	// proceed. Exclusive-side statements already hold the database
	// write lock and skip it.
	idxMu sync.Mutex
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *table.Schema { return t.schema }

// Kind returns the storage method(s).
func (t *Table) Kind() StorageKind { return t.kind }

// NumRows returns the live row count (trusted metadata; its value is
// public, like all table sizes).
func (t *Table) NumRows() int {
	if t.flat != nil {
		return t.flat.NumRows()
	}
	return t.index.NumRows()
}

// Flat exposes the flat representation (nil for indexed-only tables).
func (t *Table) Flat() *storage.Flat { return t.flat }

// Index exposes the ORAM-backed indexed representation (nil for
// flat-only tables).
func (t *Table) Index() *indexed.Table { return t.index }

// KeyColumn returns the indexed column index, or -1.
func (t *Table) KeyColumn() int { return t.keyCol }

// TableOptions configures table creation.
type TableOptions struct {
	// Kind selects the storage method(s). Default KindFlat.
	Kind StorageKind
	// KeyColumn names the indexed column (required for KindIndexed and
	// KindBoth; must be an INTEGER column).
	KeyColumn string
	// Capacity is the maximum row count (default 1024). Flat tables grow
	// by copying when full; indexes are fixed at creation.
	Capacity int
	// ObliviousInserts makes flat inserts scan the whole table instead of
	// using the constant-time append variant (§3.1).
	ObliviousInserts bool
}

// CreateTable creates a table. With a journal attached the definition is
// journaled too (so recovery rebuilds the catalog), and DDL works at any
// point in the log's life — the seed's WAL fixed its entry size at the
// first append and rejected later registrations.
func (db *DB) CreateTable(name string, schema *table.Schema, opts TableOptions) (*Table, error) {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return nil, err
	}
	wm, um := db.mutationMarks()
	t, err := db.createTableBody(name, schema, opts)
	if e := db.endMutation(err, wm, um); e != nil {
		return nil, e
	}
	return t, nil
}

// createTableBody is CreateTable without lock or journal commit.
func (db *DB) createTableBody(name string, schema *table.Schema, opts TableOptions) (*Table, error) {
	lname := strings.ToLower(name)
	if _, exists := db.tables[lname]; exists {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	t := &Table{
		name: name, schema: schema, kind: opts.Kind, keyCol: -1,
		oblivIn: opts.ObliviousInserts, capacity: capacity,
	}
	if opts.Kind == KindFlat || opts.Kind == KindBoth {
		f, err := storage.NewFlatGeom(db.enc, name+".flat", schema, capacity, db.rowsPerBlockFor(schema))
		if err != nil {
			return nil, err
		}
		t.flat = f
	}
	if opts.Kind == KindIndexed || opts.Kind == KindBoth {
		if opts.KeyColumn == "" {
			return nil, fmt.Errorf("core: %s table %q needs a key column", opts.Kind, name)
		}
		col := schema.ColIndex(opts.KeyColumn)
		if col < 0 {
			return nil, fmt.Errorf("core: key column %q not in schema", opts.KeyColumn)
		}
		// The index lives on a child enclave with its own sealer: two
		// read slots may hit two different tables' indexes concurrently,
		// and a sealer is single-stream. The child shares the parent's
		// accountant, tracer, and seed, so budget, trace, and ORAM leaf
		// assignment are identical to building on db.enc directly.
		ienc, err := db.enc.Child()
		if err != nil {
			return nil, err
		}
		// An explicit R packs the index's record blocks too; the default
		// (0, or a negative R as for flat tables) leaves them to
		// indexed.New, which sizes them near a tree node rather than at
		// the flat table's ~4 KiB.
		idx, err := indexed.New(ienc, name+".index", schema, col, capacity,
			indexed.Options{RowsPerBlock: max(db.cfg.RowsPerBlock, 0)})
		if err != nil {
			return nil, err
		}
		t.index = idx
		t.keyCol = col
	}
	db.tables[lname] = t
	db.publishCatalog()
	db.undo = append(db.undo, undoRec{create: true, t: t})
	if db.wal != nil {
		if err := db.wal.AppendCreate(db.tableDef(t)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table looks up a table by name (case-insensitive). Lookup reads the
// catalog only, so it takes the shared lock: compilation and metadata
// probes must not park an epoch's read slots behind an exclusive
// acquisition.
func (db *DB) Table(name string) (*Table, error) {
	db.lockShared()
	defer db.mu.RUnlock()
	return db.lookup(name)
}

// lookup is Table without the lock, for internal cross-calls.
func (db *DB) lookup(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// Tables lists table names.
func (db *DB) Tables() []string {
	db.lockWrite()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	return out
}

// DropTable removes a table, releasing index resources. A drop cannot be
// undone in memory (the index's ORAM is gone), so under a journal the
// drop record commits durably *before* the in-memory removal — which
// cannot fail — keeping log and memory in lockstep.
func (db *DB) DropTable(name string) error {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return err
	}
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("core: no table %q", name)
	}
	if db.wal != nil {
		mark := db.wal.Staged()
		if err := db.wal.AppendDrop(t.name); err != nil {
			db.wal.Rewind(mark)
			return err
		}
		if err := db.wal.Commit(); err != nil {
			db.wal.Rewind(mark)
			return fmt.Errorf("core: journal commit failed, table kept: %w", err)
		}
		db.maybeCheckpointLocked()
	}
	return db.dropTableBody(t.name)
}

// dropTableBody removes the table from memory; it cannot fail on an
// existing table.
func (db *DB) dropTableBody(name string) error {
	lname := strings.ToLower(name)
	t, ok := db.tables[lname]
	if !ok {
		return fmt.Errorf("core: no table %q", name)
	}
	if t.index != nil {
		t.index.Close()
	}
	delete(db.tables, lname)
	db.publishCatalog()
	return nil
}

// insertRowsBody validates every row first, so a bad row fails the
// statement before it touches one, then inserts them: the index at
// once, the flat table through the bracket's pending list (one pass per
// run, see batch.go). Each journal record is staged after its row
// applies, and a bracket that fails rewinds the stage.
func (db *DB) insertRowsBody(name string, rows []table.Row) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.schema.ValidateRow(r); err != nil {
			return err
		}
	}
	defer db.trackIndex(t)()
	for _, r := range rows {
		if t.flat != nil {
			db.queueFlat(t, storage.Mutation{Kind: storage.MutInsert, Row: r})
		}
		if t.index != nil {
			if err := t.index.Insert(r); err != nil {
				return err
			}
		}
		if err := db.logMutation(wal.OpInsert, t, r); err != nil {
			return err
		}
	}
	return nil
}

// liveRows reads every live row of a table for the journal checkpoint:
// one read pass over the table's cheapest representation.
func (db *DB) liveRows(t *Table) ([]table.Row, error) {
	var out []table.Row
	if t.flat != nil {
		if err := db.flushFlat(t); err != nil {
			return nil, err
		}
		err := t.flat.Scan(func(_ int, r table.Row, used bool) error {
			if used {
				out = append(out, r.Clone())
			}
			return nil
		})
		return out, err
	}
	err := t.index.ScanRaw(func(_ uint32, r table.Row) error {
		out = append(out, r.Clone())
		return nil
	})
	return out, err
}

// BulkLoad fills an empty table with rows: constant-time appends into the
// flat representation and a bottom-up build of the index. Used for
// initial loads, where only the row count leaks. Like DDL it has no plan
// node, so it brackets its own statement.
func (db *DB) BulkLoad(name string, rows []table.Row) error {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return err
	}
	wm, um := db.mutationMarks()
	return db.endMutation(db.bulkLoadBody(name, rows), wm, um)
}

func (db *DB) bulkLoadBody(name string, rows []table.Row) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	if t.NumRows() != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty table, %q has %d rows", name, t.NumRows())
	}
	if t.flat != nil {
		prior := new(storage.Prior)
		db.undo = append(db.undo, undoRec{t: t, flat: prior})
		if err := db.growFlat(t, len(rows)); err != nil {
			return err
		}
		for _, r := range rows {
			if err := t.flat.InsertFast(r, prior); err != nil {
				return err
			}
		}
	}
	if t.index != nil {
		defer db.trackIndex(t)()
		if err := t.index.BulkLoad(rows); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if err := db.logMutation(wal.OpInsert, t, r); err != nil {
			return err
		}
	}
	return nil
}

// rewriteRows is the one body of DELETE (upd == nil) and UPDATE: it
// removes or rewrites the rows of t matching pred, narrowed by key on
// the indexed column. One match pass finds the matching rows — through
// the index when the table has one (its range when key narrows it, its
// raw bucket scan otherwise), over the flat table otherwise. That one
// set is the index victims, removed by their exact entry so a repeated
// key loses the right row; the affected count; and the journal records.
// Post-images are computed and validated up front, so an updater that
// breaks a row fails the statement before it touches one — and the flat
// update, queued on the bracket's pending list, needs no validation
// pass of its own.
func (db *DB) rewriteRows(t *Table, pred table.Pred, upd table.Updater, key *KeyRange) (int, error) {
	full := combinePred(t, pred, key)
	var pre []table.Row
	var ids []uint32
	match := func(id uint32, r table.Row) error {
		if full(r) {
			pre = append(pre, r.Clone())
			ids = append(ids, id)
		}
		return nil
	}
	var err error
	switch {
	case t.index != nil && key != nil:
		_, err = t.index.RangeScan(key.Lo, key.Hi, match)
	case t.index != nil:
		err = t.index.ScanRaw(match)
	default:
		if err = db.flushFlat(t); err != nil {
			return 0, err
		}
		err = t.flat.Scan(func(i int, r table.Row, used bool) error {
			if !used {
				return nil
			}
			return match(uint32(i), r)
		})
	}
	if err != nil {
		return 0, err
	}
	var post []table.Row
	if upd != nil {
		post = make([]table.Row, len(pre))
		for i, r := range pre {
			post[i] = upd(r.Clone())
			if err := t.schema.ValidateRow(post[i]); err != nil {
				return 0, err
			}
		}
	}
	// The index records its changes from here, before its work starts.
	defer db.trackIndex(t)()
	if t.flat != nil {
		m := storage.Mutation{Kind: storage.MutDelete, Pred: full}
		if upd != nil {
			m = storage.Mutation{Kind: storage.MutUpdate, Pred: full, Upd: upd, Validated: true}
		}
		db.queueFlat(t, m)
	}
	if t.index != nil {
		for i, id := range ids {
			if _, err := t.index.DeleteEntry(pre[i][t.keyCol].AsInt(), id); err != nil {
				return 0, err
			}
			if upd != nil {
				if err := t.index.Insert(post[i]); err != nil {
					return 0, err
				}
			}
		}
	}
	for i := range pre {
		if err := db.logMutation(wal.OpDelete, t, pre[i]); err != nil {
			return 0, err
		}
		if upd != nil {
			if err := db.logMutation(wal.OpUpdate, t, post[i]); err != nil {
				return 0, err
			}
		}
	}
	return len(pre), nil
}

// KeyRange is an inclusive range on a table's indexed column.
type KeyRange struct {
	Lo, Hi int64
}

// Point returns a single-key range.
func Point(k int64) *KeyRange { return &KeyRange{Lo: k, Hi: k} }

// combinePred folds the key range into the predicate for representations
// that scan.
func combinePred(t *Table, pred table.Pred, key *KeyRange) table.Pred {
	if key == nil {
		return pred
	}
	kc := t.keyCol
	if kc < 0 {
		// Flat-only table: the "key range" narrows on the named column of
		// the schema only when an index exists; without one callers fold
		// ranges into pred themselves.
		return pred
	}
	return func(r table.Row) bool {
		k := r[kc].AsInt()
		return k >= key.Lo && k <= key.Hi && pred(r)
	}
}

// rowsPerBlockFor resolves the packing factor of a schema's flat tables
// and intermediates: the configured knob, or the ~4 KiB-per-block
// default.
func (db *DB) rowsPerBlockFor(s *table.Schema) int {
	if db.cfg.RowsPerBlock > 0 {
		return db.cfg.RowsPerBlock
	}
	return storage.DefaultRowsPerBlock(s)
}

// tmpName generates a unique name for intermediate tables. The counter
// is atomic so concurrent read slots never collide; trace comparisons
// across interleavings normalize the digits away
// (trace.EventMultisetFingerprint).
func (db *DB) tmpName(op string) string {
	return fmt.Sprintf("tmp%d.%s", db.tmpSeq.Add(1), op)
}
