// Package server turns the ObliDB engine into a network service whose
// observable request stream leaks nothing about client behavior.
//
// The engine alone hides *what* a query touches; an adversarial host
// still learns *when* and *how often* clients query by watching the
// enclave work. Following Obladi (Crooks et al., OSDI 2018), this
// server executes statements only inside fixed-size epochs on a fixed
// cadence: every EpochInterval it takes up to EpochSize queued
// statements and runs exactly EpochSize statements against the engine,
// padding any empty slots with a dummy statement. Idle or saturated,
// bursty or steady, the host observes the same thing — one batch of
// EpochSize query executions per epoch — so arrival times, arrival
// counts, and burstiness are all hidden. What remains visible is the
// epoch cadence and size (public configuration) and, per slot, the
// engine's own leakage (table sizes and plan choice, §2.3 of the
// paper); run the engine in padding mode to flatten the latter.
//
// All engine access funnels through the epoch scheduler. By default it
// executes an epoch's slots serially on one goroutine, each run of
// consecutive writes as one engine batch; with core.Config.Workers > 1
// runs of read slots are dispatched to that many goroutines, each read
// on its own read-slot context or, when it partitions, alone. See the
// concurrency note on core.DB.
package server

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/oberr"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
	"oblidb/internal/wire"
)

// Config configures a server.
type Config struct {
	// Engine configures the underlying database. Its Workers also sets
	// how many slots of one epoch execute at once (0 or 1: serially, in
	// arrival order). Above 1, maximal runs of consecutive read slots
	// (SELECTs and padding dummies) fan out to that many goroutines, each
	// read on its own read-slot context or, when it partitions, alone
	// (see core.DB). Maximal runs of consecutive INSERT/UPDATE/DELETE
	// and COMMIT slots execute as one engine batch at any Workers (one
	// flat pass per table, one journal commit), each commit one atomic
	// group of the run; write runs and DDL are barriers, executing in
	// arrival order between read runs. Statements within one read run
	// may complete in any order — the protocol already answers by
	// request id, not arrival order — so clients that need ordering
	// await each result. The observable
	// stream is unchanged: exactly EpochSize slot executions per epoch,
	// with slot events recorded before any slot runs.
	Engine core.Config
	// EpochSize is the number of statement slots per epoch (default 8).
	EpochSize int
	// EpochInterval is the fixed cadence between epochs (default 5ms).
	EpochInterval time.Duration
	// ContentionProfiling enables the runtime's mutex and block
	// profiles (runtime.SetMutexProfileFraction, SetBlockProfileRate)
	// so /debug/pprof/mutex and /debug/pprof/block on the debug
	// endpoint show where the engine waits. Off by default: the
	// profiles cost a few percent on contended paths.
	ContentionProfiling bool
	// Manual disables the internal scheduler goroutine: epochs then run
	// only when RunEpoch is called, which tests use to drive the epoch
	// stream deterministically.
	Manual bool
	// MaxPending bounds the statement queue (default 4096). A full
	// queue blocks the session that is reading, back-pressuring that
	// client's connection.
	MaxPending int
	// AdmissionTimeout bounds how long a session blocks on a full queue
	// before the statement is rejected with a typed, retriable overload
	// error instead (default 1s). Bounded admission turns a saturated
	// server into explicit backpressure the client can retry against,
	// rather than an unbounded stall.
	AdmissionTimeout time.Duration
	// WriteDeadline, when positive, is applied to every response frame
	// write. A client that stops draining its socket past the deadline
	// is evicted (connection closed, counted in
	// oblidb_sessions_evicted_total) instead of pinning the writer
	// goroutine's buffer forever. Zero disables the deadline; the
	// outBuffer slow-consumer drop still protects the epoch scheduler.
	WriteDeadline time.Duration
	// Tracer, if non-nil, records one event per executed statement slot
	// so tests can assert the observable stream is client-independent.
	Tracer *trace.Tracer
	// Logger, if non-nil, receives structured serving diagnostics:
	// connection lifecycle, epoch summaries (at Debug level), and the
	// slow-statement log. Log lines carry statement *shapes* — the
	// literal-free rendering of sql.Shape — never statement literals or
	// argument values. Nil discards everything.
	Logger *slog.Logger
	// SlowStatementEpochs is the latency threshold, in whole epochs
	// waited between submission and execution, at or above which a
	// statement counts as slow and is logged by shape (default 8).
	SlowStatementEpochs int
	// WAL, if non-nil, is the durable journal: the server first recovers
	// the engine from it (replaying every committed batch), then attaches
	// it so all further mutations — including transaction commits — are
	// journaled. The journal changes nothing observable: commits ride the
	// same padded epoch slots, and the log file's growth is a function of
	// public mutation counts.
	WAL *wal.Log
}

// padTable is the server-owned table the dummy statement reads.
const padTable = "oblidb_pad"

// Server is a concurrent oblivious query server.
type Server struct {
	cfg   Config
	db    *core.DB
	exec  *sql.Executor
	dummy *sql.Prepared
	jobs  chan *job
	quit  chan struct{}
	done  chan struct{}
	m     *serverMetrics
	log   *slog.Logger

	slotRegion trace.Region

	mu       sync.Mutex
	lis      net.Listener
	debugLis net.Listener
	sessions map[*session]struct{}
	sessWG   sync.WaitGroup // running session goroutines; Close waits it out
	closed   bool
	start    time.Time
	// epochs holds the observable per-epoch slot counts for trace
	// assertions. It is recorded only when a Tracer is configured: a
	// production server at a 5ms cadence would otherwise grow it
	// forever.
	epochs []int

	epochMu sync.Mutex // serializes runEpoch across scheduler/RunEpoch/Close
}

var errClosed = fmt.Errorf("server: already closed")

// errShutdown is the typed rejection for statements arriving while the
// server drains. CodeShutdown is retriable: the statement never reached
// an epoch slot, so a client may safely retry it elsewhere (or later).
var errShutdown = oberr.New(oberr.CodeShutdown, "server: shutting down")

// job is one client statement waiting for an epoch slot, with the
// arguments bound to its placeholders (nil for unparameterized
// statements). prep carries the parse, arity, and — after its first
// execution — the compiled physical plan, so epoch slots replay plans
// instead of re-planning.
type job struct {
	sess *session
	id   uint32
	prep *sql.Prepared
	args []table.Value
	// commit marks a transaction's COMMIT: txItems holds the writes the
	// session buffered since BEGIN, applied atomically as one group of
	// the epoch's write run. A commit occupies a slot exactly like any
	// other statement — transactions add nothing to the observable
	// stream.
	commit  bool
	txItems []sql.TxItem
	// submitEpoch is the epoch count at submission; the difference to
	// the executing epoch is the statement's latency in whole epochs —
	// the only latency resolution the server ever publishes.
	submitEpoch uint64
}

// New opens an engine and starts the epoch scheduler. The server is
// live immediately — epochs tick (all-dummy when idle) even before
// Serve is called — and must be stopped with Close.
func New(cfg Config) (*Server, error) {
	if cfg.EpochSize <= 0 {
		cfg.EpochSize = 8
	}
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = 5 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.AdmissionTimeout <= 0 {
		cfg.AdmissionTimeout = time.Second
	}
	if cfg.SlowStatementEpochs <= 0 {
		cfg.SlowStatementEpochs = 8
	}
	if cfg.ContentionProfiling {
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(int(time.Microsecond))
	}
	db, err := core.Open(cfg.Engine)
	if err != nil {
		return nil, err
	}
	if cfg.WAL != nil {
		// Crash recovery before anything touches the engine: replay the
		// journal's committed batches (uncommitted tails were already
		// discarded when the log was opened), then attach it so every
		// further mutation is journaled.
		if err := db.Recover(cfg.WAL); err != nil {
			return nil, fmt.Errorf("server: wal recovery: %w", err)
		}
		if err := db.AttachWAL(cfg.WAL); err != nil {
			return nil, fmt.Errorf("server: wal attach: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		db:       db,
		exec:     sql.New(db),
		jobs:     make(chan *job, cfg.MaxPending),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		sessions: make(map[*session]struct{}),
		start:    time.Now(),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.m = newServerMetrics(s)
	if cfg.Tracer != nil {
		s.slotRegion = cfg.Tracer.Region("server.epochs")
	}
	// The padding statement is an aggregate over a one-row table of
	// capacity one: one block at any packing, so the dummy is the
	// cheapest read there is and never splits across workers.
	// Recovery may have rebuilt the pad table from the journal; only a
	// fresh database creates it.
	if _, err := db.Table(padTable); err != nil {
		for _, stmt := range []string{
			"CREATE TABLE " + padTable + " (k INTEGER) CAPACITY = 1",
			"INSERT INTO " + padTable + " VALUES (0)",
		} {
			if _, err := s.exec.Execute(stmt); err != nil {
				return nil, fmt.Errorf("server: creating pad table: %w", err)
			}
		}
	}
	if s.dummy, err = s.exec.Prepare("SELECT COUNT(*) FROM " + padTable); err != nil {
		return nil, fmt.Errorf("server: dummy statement: %w", err)
	}
	go s.schedule()
	s.log.Info("server started",
		"epoch_size", cfg.EpochSize, "epoch_interval", cfg.EpochInterval,
		"workers", db.Workers(), "manual", cfg.Manual)
	return s, nil
}

// DB exposes the underlying engine, for tests that compare served
// results against direct execution.
func (s *Server) DB() *core.DB { return s.db }

// schedule is the single executor goroutine: it alone touches the
// engine, once per EpochInterval, draining the queue in fixed-size,
// dummy-padded batches.
func (s *Server) schedule() {
	defer close(s.done)
	if s.cfg.Manual {
		<-s.quit
		return
	}
	tick := time.NewTicker(s.cfg.EpochInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			// Graceful shutdown: keep running epochs on the same cadence
			// — still padded, still paced, so the stream stays uniform
			// to the end and the drain's length does not leak the
			// backlog's timing — until no statement is left waiting.
			for len(s.jobs) > 0 {
				<-tick.C
				s.RunEpoch()
			}
			return
		case <-tick.C:
			s.RunEpoch()
		}
	}
}

// RunEpoch executes exactly one epoch: up to EpochSize queued
// statements, then dummy statements for every remaining slot. The
// scheduler calls it on its cadence; tests call it directly (in Manual
// mode) to drive a deterministic epoch stream.
func (s *Server) RunEpoch() {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	epochStart := time.Now()
	size := s.cfg.EpochSize
	batch := make([]*job, 0, size)
collect:
	for len(batch) < size {
		select {
		case j := <-s.jobs:
			batch = append(batch, j)
		default:
			break collect
		}
	}
	// The observable stream — one slot event per epoch slot — is
	// recorded up front, so it is identical whether the slots then run
	// serially or across the worker pool.
	for slot := 0; slot < size; slot++ {
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Record(s.slotRegion, trace.Write, slot)
		}
	}
	// Maximal runs of consecutive read slots fan out across the worker
	// pool; maximal runs of consecutive write and commit slots execute
	// as one engine batch (one flat pass per table, one journal commit);
	// every other slot (DDL, EXPLAIN) runs alone. Runs execute in
	// arrival order, so writes apply in arrival order and every read
	// observes a quiescent engine state. Run boundaries depend on slot
	// kinds alone, and the slot events above were already recorded, so
	// this scheduling is invisible.
	workers := min(s.db.Workers(), size)
	for slot := 0; slot < size; {
		end := slot + 1
		switch {
		case readSlot(slot, batch):
			for end < size && readSlot(end, batch) {
				end++
			}
			s.runReadRun(slot, end, batch, workers)
		case writeSlot(slot, batch):
			for end < size && writeSlot(end, batch) {
				end++
			}
			s.runWriteRun(batch[slot:end])
		default:
			s.executeSlot(slot, batch)
		}
		slot = end
	}
	s.m.occupancy.Observe(float64(len(batch)))
	// Epoch duration is published only at epoch-interval resolution:
	// the histogram observes whole intervals elapsed, so its buckets
	// are a function of the epoch schedule, not of micro-timing.
	s.m.epochDuration.Observe(float64(time.Since(epochStart) / s.cfg.EpochInterval))
	// The counters publish together under mu, as Stats reads them. The
	// epoch count goes last, under epochMu: a statement submitted during
	// epoch N observes submitEpoch ≥ N, never a half-counted epoch.
	s.mu.Lock()
	if s.cfg.Tracer != nil {
		s.epochs = append(s.epochs, size)
	}
	s.m.realTotal.Add(uint64(len(batch)))
	s.m.dummyTotal.Add(uint64(size - len(batch)))
	s.m.epochsTotal.Inc()
	s.mu.Unlock()
	s.log.Debug("epoch complete",
		"epoch", s.m.epochsTotal.Value(), "real", len(batch), "dummies", size-len(batch))
}

// readSlot classifies one epoch slot: padding dummies and SELECTs are
// reads (they take the engine's shared lock); everything else — DML,
// DDL, commits, EXPLAIN — mutates or must serialize.
// The classification uses only the statement kind, which the slot's
// execution reveals anyway (plan choice is conceded leakage, §2.3).
func readSlot(slot int, batch []*job) bool {
	if slot >= len(batch) {
		return true // dummy: a self-contained SELECT
	}
	j := batch[slot]
	return !j.commit && j.prep.Kind() == "select"
}

// writeSlot classifies one epoch slot as a write — an autocommit
// INSERT, UPDATE or DELETE, or a transaction's COMMIT — which joins the
// epoch's write runs. Like readSlot it uses only the statement kind.
func writeSlot(slot int, batch []*job) bool {
	if slot >= len(batch) {
		return false
	}
	j := batch[slot]
	return j.commit || sql.IsWrite(j.prep.Stmt())
}

// runWriteRun executes a run of write slots as one engine batch — an
// autocommit write is a group of its own statement, a commit a group of
// its transaction's buffered writes — and answers each slot once the
// run has committed, so an acknowledged write is a durable one.
func (s *Server) runWriteRun(jobs []*job) {
	groups := make([][]sql.TxItem, len(jobs))
	for i, j := range jobs {
		if groups[i] = j.txItems; !j.commit {
			groups[i] = []sql.TxItem{{Prep: j.prep, Args: j.args}}
		}
	}
	results, errs := s.exec.ExecBatch(groups)
	for i, j := range jobs {
		s.answer(j, results[i], errs[i])
	}
}

// runReadRun executes slots [start, end) — all reads — across up to
// workers goroutines.
func (s *Server) runReadRun(start, end int, batch []*job, workers int) {
	if n := end - start; workers > n {
		workers = n
	}
	if workers <= 1 {
		for slot := start; slot < end; slot++ {
			s.executeSlot(slot, batch)
		}
		return
	}
	slots := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := range slots {
				s.executeSlot(slot, batch)
			}
		}()
	}
	for slot := start; slot < end; slot++ {
		slots <- slot
	}
	close(slots)
	wg.Wait()
}

// executeSlot runs one epoch slot: a queued statement (answered to its
// session) or the padding dummy.
func (s *Server) executeSlot(slot int, batch []*job) {
	if slot < len(batch) {
		j := batch[slot]
		res, err := j.prep.Exec(j.args)
		s.answer(j, res, err)
		return
	}
	if _, err := s.dummy.Exec(nil); err != nil {
		s.log.Error("dummy statement failed", "err", err)
	}
}

// answer replies to one executed statement and counts it: the
// per-kind statement counter, a commit's outcome, its latency in whole
// epochs, and the slow-statement log.
func (s *Server) answer(j *job, res *core.Result, err error) {
	j.sess.reply(j.id, res, err)
	kind := "commit"
	switch {
	case !j.commit:
		kind = j.prep.Kind()
	case err != nil:
		s.m.txAborted.Inc()
	default:
		s.m.txCommitted.Inc()
	}
	s.m.statements.WithCounter(kind).Inc()
	// Latency in whole epochs waited: epochs completed since the
	// statement was submitted. Epoch-schedule-derived, no wall clock.
	waited := s.m.epochsTotal.Value() - j.submitEpoch
	s.m.latency.WithHistogram(kind).Observe(float64(waited))
	if waited >= uint64(s.cfg.SlowStatementEpochs) {
		s.m.slowTotal.Inc()
		// The shape is literal-free (sql.Shape): argument values and
		// statement literals never reach a log line. A commit logs its
		// keyword.
		shape := "COMMIT"
		if !j.commit {
			shape = j.prep.Shape()
		}
		s.log.Warn("slow statement",
			"shape", shape, "kind", kind, "epochs_waited", waited)
	}
}

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until the server is closed. It owns
// the listener and closes it on shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("server: already closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.sessions[sess] = struct{}{}
		s.sessWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.sessWG.Done()
			sess.serve()
		}()
	}
}

// Addr returns the listening address, for servers started on ":0".
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// dropSession forgets a finished session.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// submit queues one statement for the next epoch with a free slot. It
// blocks for back-pressure while the queue is full, but only up to
// AdmissionTimeout: past that the statement is rejected with a typed,
// retriable overload error — bounded admission instead of an unbounded
// stall. It fails with a typed shutdown error once the server drains.
func (s *Server) submit(j *job) error {
	j.submitEpoch = s.m.epochsTotal.Value()
	select {
	case <-s.quit:
		return errShutdown
	case s.jobs <- j:
		return nil
	default:
	}
	timer := time.NewTimer(s.cfg.AdmissionTimeout)
	defer timer.Stop()
	select {
	case <-s.quit:
		return errShutdown
	case s.jobs <- j:
		return nil
	case <-timer.C:
		s.m.admissionRejected.Inc()
		return oberr.New(oberr.CodeOverload,
			"server: admission queue full (%d pending), retry later", len(s.jobs))
	}
}

// Close shuts the server down gracefully: stop accepting, let the
// scheduler flush every queued statement through final (still padded)
// epochs, fail anything that slipped in after, and close all sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	debugLis := s.debugLis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	if debugLis != nil {
		debugLis.Close()
	}
	s.log.Info("server stopping")
	close(s.quit)
	if s.cfg.Manual {
		// Manual mode: flush on the caller's goroutine.
		for len(s.jobs) > 0 {
			s.RunEpoch()
		}
	}
	<-s.done
	// Statements enqueued after the final drain get an error rather
	// than silence.
	for {
		select {
		case j := <-s.jobs:
			j.sess.reply(j.id, nil, errShutdown)
		default:
			s.mu.Lock()
			sessions := make([]*session, 0, len(s.sessions))
			for sess := range s.sessions {
				sessions = append(sessions, sess)
			}
			s.mu.Unlock()
			// The writers own the hang-up: each flushes its queued
			// replies to the socket before closing, so nothing the
			// final epochs answered is lost to a close/flush race. A
			// client that stopped reading is force-closed after the
			// flush deadline rather than wedging shutdown.
			for _, sess := range sessions {
				sess.beginShutdown()
			}
			for _, sess := range sessions {
				select {
				case <-sess.writerDone:
				case <-time.After(closeFlushDeadline + time.Second):
					sess.close()
					<-sess.writerDone
				}
				// The writer has flushed; now hang up so the reader
				// (blocked in ReadFrame) unwinds too.
				sess.close()
			}
			// Wait for every session goroutine to finish unwinding, so
			// callers observe a quiescent server: no late log lines, no
			// stray goroutines after Close returns.
			s.sessWG.Wait()
			return nil
		}
	}
}

// Pending reports how many statements are queued for future epochs.
func (s *Server) Pending() int { return len(s.jobs) }

// Stats reports the server's public counters, including the SQL layer's
// plan-cache counters, the engine's per-algorithm pick tallies (plan
// choices are already-conceded leakage, §2.3), and the full
// metric-registry snapshot as MetricsJSON. Epochs, Real and Dummy are
// published together, so Real+Dummy = Epochs×EpochSize in every reply;
// MetricsJSON, like a /metrics scrape, reads each counter on its own
// (its gauges take mu) and may straddle an epoch.
func (s *Server) Stats() wire.Stats {
	cache := s.exec.CacheStats()
	picks := enginePicks(s.db.PlanStats())
	metricsJSON := s.metricsJSON()
	ws := s.db.WALStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire.Stats{
		Epochs:       s.m.epochsTotal.Value(),
		EpochSize:    uint32(s.cfg.EpochSize),
		Real:         s.m.realTotal.Value(),
		Dummy:        s.m.dummyTotal.Value(),
		Sessions:     uint32(len(s.sessions)),
		UptimeMillis: uint64(time.Since(s.start) / time.Millisecond),

		PlanEntries:      uint32(cache.Entries),
		PlanHits:         cache.Hits,
		PlanMisses:       cache.Misses,
		PlanCompiles:     cache.Compiles,
		PlanCompileSkips: cache.CompileSkips,
		Picks:            picks,

		MetricsJSON: metricsJSON,

		TxBegun:        s.m.txBegun.Value(),
		TxCommitted:    s.m.txCommitted.Value(),
		TxRolledBack:   s.m.txRolledBack.Value(),
		TxAborted:      s.m.txAborted.Value(),
		WalEntries:     ws.Entries,
		WalCommits:     ws.Commits,
		WalCheckpoints: ws.Checkpoints,
		WalBytes:       uint64(ws.SizeBytes),
	}
}

// enginePicks flattens the engine's pick counters into sorted wire
// pairs ("select.Hash", "join.Opaque", "sort", "limit").
func enginePicks(p core.PickStats) []wire.AlgPick {
	var out []wire.AlgPick
	for name, n := range p.Select {
		out = append(out, wire.AlgPick{Name: "select." + name, Count: n})
	}
	for name, n := range p.Join {
		out = append(out, wire.AlgPick{Name: "join." + name, Count: n})
	}
	if p.Sorts > 0 {
		out = append(out, wire.AlgPick{Name: "sort", Count: p.Sorts})
	}
	if p.Limits > 0 {
		out = append(out, wire.AlgPick{Name: "limit", Count: p.Limits})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ObservedStream returns the per-epoch slot counts — the entirety of
// what the untrusted host can tally about request arrivals. Every entry
// equals EpochSize by construction; tests assert two servers with
// different client behavior produce equal streams. The stream is only
// recorded when Config.Tracer is set.
func (s *Server) ObservedStream() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.epochs))
	copy(out, s.epochs)
	return out
}
