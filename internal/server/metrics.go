package server

import (
	"encoding/json"
	"strconv"

	"oblidb/internal/metrics"
	"oblidb/internal/wire"
)

// serverMetrics is the server's leakage-audited metric catalog. Hot
// paths write the direct instruments; everything another layer already
// counts (plan cache, enclave I/O, storage geometry) is collected at
// scrape time through Func metrics so there is exactly one
// authoritative counter per fact.
//
// Every family here is a function of public quantities only — the
// epoch schedule, statement shapes and kinds, frame types and
// ciphertext sizes, table geometry, and the conceded plan leakage of
// §2.3 — never of data values. DESIGN.md §13 argues this per metric,
// and TestMetricsObliviousness pins it byte-for-byte.
type serverMetrics struct {
	reg *metrics.Registry

	epochsTotal   *metrics.Counter
	realTotal     *metrics.Counter
	dummyTotal    *metrics.Counter
	occupancy     *metrics.Histogram
	epochDuration *metrics.Histogram

	statements *metrics.Vec // counter by statement kind
	latency    *metrics.Vec // histogram by kind, in whole epochs waited
	slowTotal  *metrics.Counter

	framesIn  *metrics.Vec
	framesOut *metrics.Vec
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter

	txBegun      *metrics.Counter
	txCommitted  *metrics.Counter
	txRolledBack *metrics.Counter
	txAborted    *metrics.Counter

	admissionRejected *metrics.Counter
	sessionsEvicted   *metrics.Counter
}

// latencyMax bounds the epoch-latency histogram grid: a statement that
// waits more than 64 epochs is saturated into the top bucket.
const latencyMax = 64

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{reg: r}

	// Epoch scheduler: cadence, occupancy, padding.
	m.epochsTotal = r.Counter("oblidb_epochs_total", "epochs executed")
	m.realTotal = r.Counter("oblidb_statements_real_total", "client statements executed in epoch slots")
	m.dummyTotal = r.Counter("oblidb_statements_dummy_total", "dummy padding statements executed in epoch slots")
	m.occupancy = r.Histogram("oblidb_epoch_occupancy",
		"client statements per epoch before padding", metrics.ExpBuckets(s.cfg.EpochSize))
	m.epochDuration = r.Histogram("oblidb_epoch_duration_intervals",
		"epoch execution time in whole epoch intervals (quantized)", metrics.ExpBuckets(latencyMax))
	r.GaugeFunc("oblidb_epoch_slots", "statement slots per epoch (public configuration)",
		func() float64 { return float64(s.cfg.EpochSize) })
	r.GaugeFunc("oblidb_epoch_interval_ms", "epoch cadence in milliseconds (public configuration)",
		func() float64 { return float64(s.cfg.EpochInterval.Milliseconds()) })
	r.GaugeFunc("oblidb_epoch_padding_ratio", "fraction of executed statements that were dummies",
		func() float64 {
			real, dummy := float64(m.realTotal.Value()), float64(m.dummyTotal.Value())
			if real+dummy == 0 {
				return 0
			}
			return dummy / (real + dummy)
		})
	r.GaugeFunc("oblidb_statements_pending", "statements queued for future epochs",
		func() float64 { return float64(len(s.jobs)) })

	// Statements: per-kind tallies and epoch-quantized latency. The
	// latency unit is whole epochs waited (execution epoch minus
	// submission epoch) — a function of queue position and the epoch
	// schedule, with no wall-clock component.
	m.statements = r.CounterVec("oblidb_statements_total", "client statements executed by kind", "kind")
	m.latency = r.HistogramVec("oblidb_statement_latency_epochs",
		"whole epochs a statement waited between submission and execution", "kind",
		metrics.ExpBuckets(latencyMax))
	m.slowTotal = r.Counter("oblidb_slow_statements_total",
		"statements that waited at least the slow threshold of epochs")

	// Sessions and wire traffic. Byte counters are ciphertext volume —
	// sizes the untrusted network already observes.
	r.GaugeFunc("oblidb_sessions_open", "connected client sessions",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	// Overload and fault-injection accounting. All three are counts of
	// events the host observes directly (a rejected frame, a torn-down
	// connection, an injected host fault) — no data dependence. The
	// store-fault counter reads the engine's configured injector when one
	// is present and stays 0 otherwise; it registers unconditionally so
	// the catalog's shape never depends on configuration.
	m.admissionRejected = r.Counter("oblidb_admission_rejected_total",
		"statements rejected because the admission queue stayed full past the timeout")
	m.sessionsEvicted = r.Counter("oblidb_sessions_evicted_total",
		"sessions dropped for not consuming responses (slow reader or write deadline)")
	faultCount := func() uint64 { return 0 }
	if inj, ok := s.cfg.Engine.Fault.(interface{ Injected() uint64 }); ok {
		faultCount = inj.Injected
	}
	r.CounterFunc("oblidb_store_faults_injected_total",
		"transient store faults injected by the configured fault schedule", faultCount)

	m.framesIn = r.CounterVec("oblidb_frames_received_total", "protocol frames received by type", "type")
	m.framesOut = r.CounterVec("oblidb_frames_sent_total", "protocol frames sent by type, counted when the write starts", "type")
	m.bytesIn = r.Counter("oblidb_net_read_bytes_total", "protocol bytes received, including frame headers")
	m.bytesOut = r.Counter("oblidb_net_written_bytes_total", "protocol bytes sent, including frame headers, counted when the write starts")

	// Transactions and the durable journal. Counts of transaction
	// control and journal activity are functions of (public) statement
	// counts; the journal's size is a function of mutation counts and
	// schemas. All families register whether or not a journal is
	// attached, so the metric catalog's shape never depends on
	// configuration discovered at scrape time.
	m.txBegun = r.Counter("oblidb_tx_begun_total", "transactions opened")
	m.txCommitted = r.Counter("oblidb_tx_committed_total", "transactions committed")
	m.txRolledBack = r.Counter("oblidb_tx_rolled_back_total", "transactions rolled back by the client")
	m.txAborted = r.Counter("oblidb_tx_aborted_total", "transaction commits that failed and rolled back")
	r.CounterFunc("oblidb_wal_entries_total", "journal records committed durably",
		func() uint64 { return s.db.WALStats().Entries })
	r.CounterFunc("oblidb_wal_commits_total", "journal batch commits",
		func() uint64 { return s.db.WALStats().Commits })
	r.CounterFunc("oblidb_wal_checkpoints_total", "journal checkpoint compactions",
		func() uint64 { return s.db.WALStats().Checkpoints })
	r.GaugeFunc("oblidb_wal_size_bytes", "committed journal file size",
		func() float64 { return float64(s.db.WALStats().SizeBytes) })

	// SQL layer: plan cache and compiled-plan replay.
	r.GaugeFunc("oblidb_plan_cache_entries", "cached statement shapes",
		func() float64 { return float64(s.exec.CacheStats().Entries) })
	r.CounterFunc("oblidb_plan_cache_hits_total", "parse-cache hits",
		func() uint64 { return s.exec.CacheStats().Hits })
	r.CounterFunc("oblidb_plan_cache_misses_total", "parse-cache misses",
		func() uint64 { return s.exec.CacheStats().Misses })
	r.CounterFunc("oblidb_plan_compiles_total", "physical-plan compilations",
		func() uint64 { return s.exec.CacheStats().Compiles })
	r.CounterFunc("oblidb_plan_replays_total", "executions that replayed a compiled plan",
		func() uint64 { return s.exec.CacheStats().CompileSkips })

	// Engine: operator-algorithm picks (conceded plan leakage, §2.3).
	r.CounterVecFunc("oblidb_algorithm_picks_total", "operator algorithm choices", "algorithm",
		func() map[string]uint64 {
			out := make(map[string]uint64)
			for _, p := range enginePicks(s.db.PlanStats()) {
				out[p.Name] = p.Count
			}
			return out
		})

	// Enclave boundary: sealed-block I/O (the access sequence the host
	// observes anyway) and the oblivious-memory accountant.
	r.CounterFunc("oblidb_enclave_blocks_opened_total", "sealed blocks read and opened across all enclaves",
		func() uint64 { return s.db.IOStats().BlocksOpened })
	r.CounterFunc("oblidb_enclave_blocks_sealed_total", "blocks sealed and written across all enclaves",
		func() uint64 { return s.db.IOStats().BlocksSealed })
	r.CounterFunc("oblidb_enclave_bytes_opened_total", "plaintext bytes opened from sealed blocks",
		func() uint64 { return s.db.IOStats().BytesOpened })
	r.CounterFunc("oblidb_enclave_bytes_sealed_total", "plaintext bytes sealed into blocks",
		func() uint64 { return s.db.IOStats().BytesSealed })
	r.GaugeFunc("oblidb_enclave_oblivious_memory_budget_bytes", "configured oblivious memory budget",
		func() float64 { return float64(s.db.Enclave().Budget()) })
	r.GaugeFunc("oblidb_enclave_oblivious_memory_in_use_bytes", "oblivious memory currently reserved",
		func() float64 { return float64(s.db.Enclave().Used()) })
	r.GaugeFunc("oblidb_enclave_oblivious_memory_peak_bytes", "high-water mark of reserved oblivious memory",
		func() float64 { return float64(s.db.Enclave().PeakUsed()) })
	r.GaugeFunc("oblidb_enclave_workers", "pooled enclave contexts: partition workers and read slots (public configuration)",
		func() float64 { return float64(s.db.Workers()) })

	// Engine lock contention: how often statements took each side of the
	// database lock, and how many of those acquisitions had to wait.
	// These are counts of statement executions by kind — conceded by the
	// epoch slot stream — with no timing component (DESIGN.md §13).
	r.CounterVecFunc("oblidb_engine_lock_acquires_total", "database lock acquisitions by side", "side",
		func() map[string]uint64 {
			ls := s.db.LockStats()
			return map[string]uint64{"shared": ls.SharedAcquires, "exclusive": ls.ExclusiveAcquires}
		})
	r.CounterVecFunc("oblidb_engine_lock_waits_total", "database lock acquisitions that blocked", "side",
		func() map[string]uint64 {
			ls := s.db.LockStats()
			return map[string]uint64{"shared": ls.SharedWaits, "exclusive": ls.ExclusiveWaits}
		})

	// Storage: flat-table geometry. rows_per_block is a closed label
	// set (the packing knob), so per-geometry gauges stay low-cardinality.
	r.GaugeVecFunc("oblidb_storage_tables", "flat tables by packing geometry", "rows_per_block",
		func() map[string]float64 {
			out := make(map[string]float64)
			for r, g := range s.db.StorageStats() {
				out[strconv.Itoa(r)] = float64(g.Tables)
			}
			return out
		})
	r.GaugeVecFunc("oblidb_storage_blocks", "sealed blocks by packing geometry", "rows_per_block",
		func() map[string]float64 {
			out := make(map[string]float64)
			for r, g := range s.db.StorageStats() {
				out[strconv.Itoa(r)] = float64(g.Blocks)
			}
			return out
		})
	r.GaugeFunc("oblidb_storage_untrusted_bytes", "total untrusted bytes held by flat tables, sealing overhead included",
		func() float64 {
			var total int
			for _, g := range s.db.StorageStats() {
				total += g.UntrustedBytes
			}
			return float64(total)
		})
	r.GaugeFunc("oblidb_catalog_epoch", "catalog epoch (bumped by DDL, voids compiled plans)",
		func() float64 { return float64(s.db.CatalogEpoch()) })

	return m
}

// frameTypeName maps a wire message type to its metric label. The set
// is closed by the protocol definition.
func frameTypeName(t byte) string {
	switch t {
	case wire.TExec:
		return "exec"
	case wire.TPrepare:
		return "prepare"
	case wire.TExecPrepared:
		return "exec_prepared"
	case wire.TClosePrepared:
		return "close_prepared"
	case wire.TStats:
		return "stats"
	case wire.TResult:
		return "result"
	case wire.TError:
		return "error"
	case wire.TPrepared:
		return "prepared"
	case wire.TStatsResult:
		return "stats_result"
	case wire.TBegin:
		return "begin"
	case wire.TCommit:
		return "commit"
	case wire.TRollback:
		return "rollback"
	}
	return "unknown"
}

// Metrics returns the server's metric registry, the same one the debug
// listener exposes at /metrics and /debug/vars.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// metricsJSON renders the registry snapshot for wire.Stats.MetricsJSON.
// Map keys marshal sorted, so the encoding is deterministic.
func (s *Server) metricsJSON() string {
	data, err := json.Marshal(s.m.reg.Snapshot())
	if err != nil {
		return ""
	}
	return string(data)
}
