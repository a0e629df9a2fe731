// Command oblidb-server serves an ObliDB database over TCP behind an
// epoch-padded batch scheduler: clients connect with the client package
// (or oblidb-cli -connect) and submit SQL; the server executes a
// fixed-size, dummy-padded batch of statements on a fixed cadence so
// the untrusted host observes a constant-rate, constant-size query
// stream regardless of real client traffic.
//
//	$ oblidb-server -addr :7744 -epoch-size 8 -epoch-interval 5ms
//	$ oblidb-cli -connect localhost:7744
//
// With -wal the server journals every committed mutation to a sealed
// write-ahead log and replays it on startup, so a kill -9 (or power
// loss, with -wal-sync) loses no acknowledged commit:
//
//	$ oblidb-server -addr :7744 -wal /var/lib/oblidb/oblidb.wal
//
// The journal's sealing key is read from -wal-key (hex, one line),
// generated on first use. Keep the key file as safe as the journal is
// sensitive: together they are the database.
//
// Flags tune the enclave (-memory, -pad) exactly as in oblidb-cli.
// With -debug-addr the server also serves /metrics (Prometheus text),
// /debug/vars (JSON snapshot), and /debug/pprof/* on a separate
// listener; bind it to loopback or an operator network.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/server"
	"oblidb/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7744", "TCP listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for /metrics, /debug/vars, /debug/pprof (empty = off)")
	epochSize := flag.Int("epoch-size", 8, "statement slots per epoch")
	epochInterval := flag.Duration("epoch-interval", 5*time.Millisecond, "fixed cadence between epochs")
	memory := flag.Int("memory", 0, "oblivious memory budget in bytes (0 = paper default 20 MB)")
	pad := flag.Int("pad", 0, "padding mode: pad intermediate tables to this many rows (0 = off)")
	workers := flag.Int("workers", 1, "engine context pool: concurrent epoch read slots and intra-query partitions (-1 = GOMAXPROCS, 1 = serial)")
	contentionProfile := flag.Bool("contention-profile", false, "enable mutex and block profiles on /debug/pprof")
	slowEpochs := flag.Int("slow-epochs", 0, "log statements that wait at least this many epochs, by literal-free shape (0 = default 8)")
	walPath := flag.String("wal", "", "write-ahead log file; replayed on startup, journaled while serving (empty = no durability)")
	walKeyPath := flag.String("wal-key", "", "journal sealing key file, hex (default <wal>.key; created if missing)")
	walSync := flag.Bool("wal-sync", true, "fsync the journal on every commit")
	walCheckpointBytes := flag.Int64("wal-checkpoint-bytes", 64<<20, "compact the journal once it exceeds this size (0 = never)")
	maxPending := flag.Int("max-pending", 0, "admission queue bound; a queue full past -admission-timeout rejects with a retriable overload error (0 = default 4096)")
	admissionTimeout := flag.Duration("admission-timeout", 0, "how long a full queue blocks a session before rejecting (0 = default 1s)")
	writeDeadline := flag.Duration("write-deadline", 0, "per-response write deadline; clients stalled past it are evicted (0 = off)")
	walCrashPoint := flag.String("wal-crash-point", "", "TESTING ONLY: kill the process at a named journal crash point (pre-commit, mid-commit-marker, post-commit-pre-ack)")
	walCrashAfter := flag.Uint64("wal-crash-after", 0, "TESTING ONLY: journal file writes to allow before -wal-crash-point fires")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	quiet := flag.Bool("quiet", false, "suppress serving diagnostics")
	flag.Parse()

	engine := core.Config{ObliviousMemory: *memory, Workers: *workers}
	if *pad > 0 {
		engine.Padding = core.PaddingConfig{Enabled: true, PadRows: *pad, PadGroups: *pad}
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "oblidb-server: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logDst := io.Writer(os.Stderr)
	if *quiet {
		logDst = io.Discard
	}
	logger := slog.New(slog.NewTextHandler(logDst, &slog.HandlerOptions{Level: level}))

	var journal *wal.Log
	var crash *faultstore.Crash
	if *walPath != "" {
		keyPath := *walKeyPath
		if keyPath == "" {
			keyPath = *walPath + ".key"
		}
		key, err := loadWALKey(keyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oblidb-server:", err)
			os.Exit(1)
		}
		opts := wal.Options{
			Sync:                *walSync,
			AutoCheckpointBytes: *walCheckpointBytes,
		}
		if *walCrashPoint != "" {
			// Crash-point testing: every journal file write goes through a
			// fault wrapper that hard-kills the process at the named point.
			// The controller is armed only after startup recovery finishes
			// (below), so -wal-crash-after counts serving-time writes.
			point := *walCrashPoint
			crash, err = faultstore.NewCrash(point, int(*walCrashAfter), func() {
				fmt.Fprintf(os.Stderr, "oblidb-server: crash point %s fired\n", point)
				os.Exit(137)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "oblidb-server:", err)
				os.Exit(2)
			}
			opts.OpenFile = func(p string) (wal.File, error) {
				f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o600)
				if err != nil {
					return nil, err
				}
				return faultstore.WrapFile(f, faultstore.FileSchedule{}, crash), nil
			}
		}
		journal, err = wal.Open(*walPath, key, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oblidb-server:", err)
			os.Exit(1)
		}
		defer journal.Close()
	}

	srv, err := server.New(server.Config{
		Engine:              engine,
		EpochSize:           *epochSize,
		EpochInterval:       *epochInterval,
		ContentionProfiling: *contentionProfile,
		Logger:              logger,
		SlowStatementEpochs: *slowEpochs,
		MaxPending:          *maxPending,
		AdmissionTimeout:    *admissionTimeout,
		WriteDeadline:       *writeDeadline,
		WAL:                 journal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oblidb-server:", err)
		os.Exit(1)
	}
	if crash != nil {
		// Startup recovery (and its checkpoint) is done; from here on the
		// armed crash point counts journal writes and kills the process.
		crash.Arm()
	}
	if *debugAddr != "" {
		if _, err := srv.ServeDebug(*debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "oblidb-server:", err)
			os.Exit(1)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "oblidb-server: shutting down")
		srv.Close()
	}()

	fmt.Fprintf(os.Stderr, "oblidb-server: serving on %s (epoch: %d slots every %s)\n",
		*addr, *epochSize, *epochInterval)
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "oblidb-server:", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "oblidb-server: %d epochs, %d real + %d dummy statements, up %s\n",
		st.Epochs, st.Real, st.Dummy, time.Duration(st.UptimeMillis)*time.Millisecond)
}

// loadWALKey reads the journal sealing key (hex, one line) from path,
// generating and writing a fresh one (mode 0600) on first use.
func loadWALKey(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		key := crypt.NewRandomKey()
		line := hex.EncodeToString(key) + "\n"
		if err := os.WriteFile(path, []byte(line), 0o600); err != nil {
			return nil, fmt.Errorf("writing new key file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "oblidb-server: generated journal key %s\n", path)
		return key, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading key file: %w", err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(data)))
	if err != nil {
		return nil, fmt.Errorf("key file %s: %w", path, err)
	}
	if len(key) != crypt.KeySize {
		return nil, fmt.Errorf("key file %s: want %d key bytes, got %d", path, crypt.KeySize, len(key))
	}
	return key, nil
}
