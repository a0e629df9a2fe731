// Package wal implements the write-ahead log §3 of the paper sketches as
// the path to durability: "a standard write-ahead log could be
// generically added to the system. Appends to such a log would not leak
// any additional information or affect obliviousness, as the only change
// would be to make a write to an encrypted log file before each
// insert/update/delete operation."
//
// The log is an append-only file of sealed frames. Each frame carries one
// record — a journaled mutation, a journaled DDL statement, or a commit
// marker — AEAD-sealed under the log's own key with the frame's sequence
// number bound as additional data, so frames cannot be reordered,
// duplicated, or transplanted between positions without detection.
// Mutations are first *staged* in enclave memory and only reach the file
// when Commit seals the whole batch plus a trailing commit marker in a
// single write, so a crash (or an aborted statement) can never leave a
// half-logged batch that replay would apply: recovery discards any suffix
// after the last commit marker.
//
// What the file leaks is exactly what the paper concedes: the count and
// sealed size of journaled records and the commit grouping — all
// functions of public mutation counts and schemas, never of row values.
// The access pattern of logging is one sequential write per frame.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"oblidb/internal/crypt"
	"oblidb/internal/oberr"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// File is the slice of *os.File the log uses. It exists so tests (and
// the fault-injection harness, internal/faultstore) can interpose on
// the journal's disk traffic: Options.OpenFile returns one for the
// live log file and for checkpoint temporaries alike.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// Op tags a logged record.
type Op uint8

const (
	// OpInsert logs an inserted row.
	OpInsert Op = 1
	// OpUpdate logs one row's post-image (the engine logs each rewritten
	// row as a delete of the pre-image plus an update post-image).
	OpUpdate Op = 2
	// OpDelete logs a deleted row's pre-image.
	OpDelete Op = 3
	// OpCreateTable logs a table definition, so recovery rebuilds the
	// catalog from the journal alone.
	OpCreateTable Op = 4
	// OpDropTable logs a table drop.
	OpDropTable Op = 5
)

// Record kinds inside a sealed frame.
const (
	recEntry  byte = 1
	recCommit byte = 2
)

// magic is the plaintext file header; it versions the frame format.
const magic = "OBLWAL1\n"

// walAAD is the constant "table" id bound into every frame's additional
// data, namespacing WAL frames away from storage blocks sealed under the
// same primitives.
const walAAD uint32 = 0x57414C31 // "WAL1"

// TableDef is the journaled form of a CREATE TABLE: everything recovery
// needs to re-create the table before replaying its rows. Kind is the
// engine's StorageKind as a raw byte (the wal package cannot import core).
type TableDef struct {
	Name             string
	Schema           *table.Schema
	Kind             uint8
	KeyColumn        string
	Capacity         int
	ObliviousInserts bool
}

// Entry is one replayed record.
type Entry struct {
	Op    Op
	Table string
	// Row is the journaled row for OpInsert/OpUpdate/OpDelete.
	Row table.Row
	// Def is the journaled definition for OpCreateTable.
	Def *TableDef
}

// Options configures a log.
type Options struct {
	// Sync fsyncs the file on every commit. Without it, a commit is
	// atomic on replay (all-or-nothing) but an OS crash may lose the
	// tail; with it, an acknowledged commit survives power loss.
	Sync bool
	// Tracer, when set, observes the log's untrusted accesses: one Write
	// event per sealed frame, one Read per frame replayed. Tests assert
	// the stream depends only on public counts.
	Tracer *trace.Tracer
	// AutoCheckpointBytes, when positive, makes ShouldCheckpoint report
	// true once the file exceeds this size, so the engine compacts the
	// journal instead of ever hitting a "log full" dead end.
	AutoCheckpointBytes int64
	// OpenFile, when set, opens (or creates, read-write) the backing
	// file for a path instead of os.OpenFile. Open uses it for the log
	// file and Checkpoint for its temporary, so a fault-injecting
	// wrapper sees every byte the journal writes.
	OpenFile func(path string) (File, error)
}

// openFile opens path through the configured hook or the OS default.
func (o *Options) openFile(path string, flag int) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.OpenFile(path, flag, 0o600)
}

// Log is a sealed, file-backed, append-only mutation journal.
//
// Concurrency: a Log is not safe for concurrent use; the engine calls it
// under its database mutex.
type Log struct {
	f      File
	path   string
	sealer *crypt.Sealer
	key    []byte
	opts   Options
	region trace.Region

	// Committed state of the current file.
	seq     uint32 // next frame sequence number
	size    int64  // committed file size in bytes
	entries int    // committed entry records (excludes commit markers)
	commits int    // commit markers

	// Monotonic counters across checkpoints (metrics).
	totalEntries, totalCommits, totalCheckpoints uint64

	// Staged (uncommitted) records: plaintext concatenated in arena,
	// offs[i] is the end offset of record i. Both retain capacity across
	// commits, which is what keeps Append allocation-free in steady
	// state.
	arena []byte
	offs  []int

	// Reusable commit scratch. cmBuf holds the commit-marker plaintext;
	// as a field it stays off the per-commit allocation path (a local
	// array would escape into appendFrame).
	sealBuf []byte
	wbuf    []byte
	cmBuf   [11]byte

	// broken latches a failure that left the file in a state we could
	// not roll back (a partial write whose truncate also failed); every
	// later operation refuses until the log is reopened.
	broken error
}

// Open opens (or creates) a log file sealed under key. An existing file
// is scanned to the last complete committed batch; a torn tail — frames
// cut short by a crash mid-write, or a trailing batch with no commit
// marker — is truncated away, while corruption *followed by* more data
// (which a crash cannot produce) is reported as tampering.
func Open(path string, key []byte, opts Options) (*Log, error) {
	sealer, err := crypt.NewSealer(key)
	if err != nil {
		return nil, err
	}
	f, err := opts.openFile(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path, sealer: sealer, key: key, opts: opts}
	if opts.Tracer != nil {
		l.region = opts.Tracer.Region("wal:" + filepath.Base(path))
	}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan validates the header, walks the frames, and truncates the file to
// the last committed batch.
func (l *Log) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	fileSize := info.Size()
	if fileSize == 0 {
		if _, err := l.f.WriteAt([]byte(magic), 0); err != nil {
			return err
		}
		l.size = int64(len(magic))
		return nil
	}
	if fileSize < int64(len(magic)) {
		// A file shorter than the header can only be a creation torn by
		// a crash before the header landed. If the bytes are a clean
		// prefix of the magic, restart the file; anything else is not a
		// WAL file.
		hdr := make([]byte, fileSize)
		if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, fileSize), hdr); err != nil || string(hdr) != magic[:fileSize] {
			return fmt.Errorf("wal: %s is not a WAL file (bad header)", l.path)
		}
		if err := l.f.Truncate(0); err != nil {
			return err
		}
		if _, err := l.f.WriteAt([]byte(magic), 0); err != nil {
			return err
		}
		l.size = int64(len(magic))
		return nil
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, int64(len(magic))), hdr); err != nil || string(hdr) != magic {
		return fmt.Errorf("wal: %s is not a WAL file (bad header)", l.path)
	}

	var (
		off      = int64(len(magic))
		lastGood = off
		seq      uint32
		goodSeq  uint32
		entries  int
		commits  int
		batch    int // entry frames since the last commit marker
		lenBuf   [4]byte
		frame    []byte
		plain    []byte
	)
	for off < fileSize {
		if fileSize-off < 4 {
			break // torn length prefix
		}
		if _, err := l.f.ReadAt(lenBuf[:], off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		frameEnd := off + 4 + n
		if n == 0 || n > int64(crypt.SealedSize(1<<24)) {
			// A nonsense length with complete bytes after it is tampering;
			// at EOF it is a torn write.
			if frameEnd >= fileSize || n == 0 {
				break
			}
			return fmt.Errorf("wal: frame %d has corrupt length %d", seq, n)
		}
		if frameEnd > fileSize {
			break // torn frame body
		}
		if int64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := l.f.ReadAt(frame, off+4); err != nil {
			return err
		}
		plain, err = l.sealer.OpenInto(plain[:0], walAAD, seq, uint64(seq), frame)
		if err != nil {
			if frameEnd == fileSize {
				break // torn: the crash interleaved garbage at the very end
			}
			return fmt.Errorf("wal: frame %d fails authentication mid-file: %w", seq, err)
		}
		if len(plain) == 0 {
			return fmt.Errorf("wal: frame %d is empty", seq)
		}
		switch plain[0] {
		case recEntry:
			batch++
		case recCommit:
			count, k := binary.Uvarint(plain[1:])
			if k <= 0 || int(count) != batch {
				return fmt.Errorf("wal: commit marker %d covers %d entries, %d staged", seq, count, batch)
			}
			entries += batch
			batch = 0
			commits++
			lastGood = frameEnd
			goodSeq = seq + 1
		default:
			return fmt.Errorf("wal: frame %d has unknown record kind %d", seq, plain[0])
		}
		seq++
		off = frameEnd
	}
	if lastGood < fileSize {
		if err := l.f.Truncate(lastGood); err != nil {
			return err
		}
	}
	l.size = lastGood
	l.seq = goodSeq
	l.entries = entries
	l.commits = commits
	return nil
}

// Len returns the committed entry count in the current file.
func (l *Log) Len() int { return l.entries }

// Commits returns the committed batch count in the current file.
func (l *Log) Commits() int { return l.commits }

// SizeBytes returns the committed file size.
func (l *Log) SizeBytes() int64 { return l.size }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// TotalEntries returns the monotonic count of entries ever committed
// through this handle, across checkpoints.
func (l *Log) TotalEntries() uint64 { return l.totalEntries }

// TotalCommits returns the monotonic commit count across checkpoints.
func (l *Log) TotalCommits() uint64 { return l.totalCommits }

// Checkpoints returns the number of completed checkpoints.
func (l *Log) Checkpoints() uint64 { return l.totalCheckpoints }

// Staged returns the number of staged (uncommitted) records.
func (l *Log) Staged() int { return len(l.offs) }

// Rewind discards staged records beyond mark (a previous Staged value):
// the abort path for a failed statement. The records never reached the
// file, so there is nothing to undo durably.
func (l *Log) Rewind(mark int) {
	if mark < 0 || mark > len(l.offs) {
		return
	}
	if mark == 0 {
		l.arena = l.arena[:0]
	} else {
		l.arena = l.arena[:l.offs[mark-1]]
	}
	l.offs = l.offs[:mark]
}

// stage reserves n bytes at the arena tail and returns them. Capacity is
// retained across commits, so the steady state allocates nothing.
func (l *Log) stage(n int) []byte {
	start := len(l.arena)
	if start+n <= cap(l.arena) {
		l.arena = l.arena[:start+n]
	} else {
		l.arena = append(l.arena, make([]byte, n)...)
	}
	l.offs = append(l.offs, start+n)
	return l.arena[start : start+n]
}

// Append stages one mutation record — the single extra write per
// mutation the paper describes, deferred to the enclosing Commit. The
// schema is passed by the caller (the engine owns the catalog); it is
// only used to size and encode the record. Append is allocation-free in
// steady state.
func (l *Log) Append(op Op, tableName string, s *table.Schema, row table.Row) error {
	if l.broken != nil {
		return l.broken
	}
	if op != OpInsert && op != OpUpdate && op != OpDelete {
		return fmt.Errorf("wal: Append takes a row op, got %d", op)
	}
	if len(tableName) > 255 {
		return fmt.Errorf("wal: table name %q too long", tableName)
	}
	n := 3 + len(tableName) + s.RecordSize()
	buf := l.stage(n)
	buf[0] = recEntry
	buf[1] = byte(op)
	buf[2] = byte(len(tableName))
	copy(buf[3:], tableName)
	if err := s.EncodeRecord(buf[3+len(tableName):], row); err != nil {
		l.Rewind(len(l.offs) - 1)
		return err
	}
	return nil
}

// AppendCreate stages a CREATE TABLE record.
func (l *Log) AppendCreate(def TableDef) error {
	if l.broken != nil {
		return l.broken
	}
	if len(def.Name) > 255 || len(def.KeyColumn) > 255 {
		return fmt.Errorf("wal: name too long in definition of %q", def.Name)
	}
	cols := def.Schema.Columns()
	if len(cols) > 255 {
		return fmt.Errorf("wal: too many columns in %q", def.Name)
	}
	var flags byte
	if def.ObliviousInserts {
		flags |= 1
	}
	buf := make([]byte, 0, 64+8*len(cols))
	buf = append(buf, recEntry, byte(OpCreateTable), byte(len(def.Name)))
	buf = append(buf, def.Name...)
	buf = append(buf, def.Kind, flags)
	buf = binary.AppendUvarint(buf, uint64(def.Capacity))
	buf = append(buf, byte(len(def.KeyColumn)))
	buf = append(buf, def.KeyColumn...)
	buf = append(buf, byte(len(cols)))
	for _, c := range cols {
		if len(c.Name) > 255 {
			return fmt.Errorf("wal: column name %q too long", c.Name)
		}
		buf = append(buf, byte(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Kind))
		buf = binary.AppendUvarint(buf, uint64(c.Width))
	}
	copy(l.stage(len(buf)), buf)
	return nil
}

// AppendDrop stages a DROP TABLE record.
func (l *Log) AppendDrop(name string) error {
	if l.broken != nil {
		return l.broken
	}
	if len(name) > 255 {
		return fmt.Errorf("wal: table name %q too long", name)
	}
	buf := l.stage(3 + len(name))
	buf[0] = recEntry
	buf[1] = byte(OpDropTable)
	buf[2] = byte(len(name))
	copy(buf[3:], name)
	return nil
}

// appendFrame seals plain as the frame with sequence seq and appends
// [len][sealed] to w, reusing l.sealBuf.
func (l *Log) appendFrame(w []byte, seq uint32, plain []byte) []byte {
	l.sealBuf = l.sealer.SealTo(l.sealBuf[:0], walAAD, seq, uint64(seq), plain)
	w = binary.LittleEndian.AppendUint32(w, uint32(len(l.sealBuf)))
	return append(w, l.sealBuf...)
}

// Commit makes the staged batch durable: every staged record plus a
// trailing commit marker is sealed and written in one write call, then
// optionally fsynced. On failure the file is truncated back to the last
// committed batch and the staged records are discarded — replay never
// sees a partial batch either way. Committing an empty stage is a no-op.
func (l *Log) Commit() error {
	if l.broken != nil {
		return l.broken
	}
	n := len(l.offs)
	if n == 0 {
		return nil
	}
	l.wbuf = l.wbuf[:0]
	seq := l.seq
	start := 0
	for _, end := range l.offs {
		l.wbuf = l.appendFrame(l.wbuf, seq, l.arena[start:end])
		start = end
		seq++
	}
	l.cmBuf[0] = recCommit
	k := binary.PutUvarint(l.cmBuf[1:], uint64(n))
	l.wbuf = l.appendFrame(l.wbuf, seq, l.cmBuf[:1+k])
	seq++

	if _, err := l.f.WriteAt(l.wbuf, l.size); err != nil {
		l.undoWrite()
		return oberr.Wrapf(oberr.CodeStoreFault, err, "wal: commit write")
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			l.undoWrite()
			return oberr.Wrapf(oberr.CodeStoreFault, err, "wal: commit sync")
		}
	}
	if l.opts.Tracer != nil {
		for s := l.seq; s < seq; s++ {
			l.opts.Tracer.Record(l.region, trace.Write, int(s))
		}
	}
	l.size += int64(len(l.wbuf))
	l.seq = seq
	l.entries += n
	l.commits++
	l.totalEntries += uint64(n)
	l.totalCommits++
	l.arena = l.arena[:0]
	l.offs = l.offs[:0]
	return nil
}

// undoWrite rolls the file back to the last committed size after a
// failed commit write, discarding the staged batch. If even the rollback
// fails the log latches broken: the file may hold a partial batch that
// only a reopen (whose scan truncates it) can clean up.
func (l *Log) undoWrite() {
	l.arena = l.arena[:0]
	l.offs = l.offs[:0]
	if err := l.f.Truncate(l.size); err != nil {
		// Typed CodeEngineFailed, not retriable: the file may hold a
		// partial batch that only a reopen (whose scan truncates it)
		// can clean up, so callers must recover, not retry.
		l.broken = oberr.Wrapf(oberr.CodeEngineFailed, err,
			"wal: log unusable after failed rollback (reopen to recover)")
	}
}

// Replay streams every committed entry in append order, skipping commit
// markers. Row records are decoded against the schemas journaled by
// earlier OpCreateTable entries in the same file, so recovery needs no
// pre-existing catalog. Staged records are invisible to Replay.
func (l *Log) Replay(fn func(Entry) error) error {
	if l.broken != nil {
		return l.broken
	}
	schemas := make(map[string]*table.Schema)
	var (
		off    = int64(len(magic))
		seq    uint32
		lenBuf [4]byte
		frame  []byte
		plain  []byte
	)
	for off < l.size {
		if _, err := l.f.ReadAt(lenBuf[:], off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		if off+4+n > l.size {
			return fmt.Errorf("wal: frame %d overruns the committed region", seq)
		}
		if int64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := l.f.ReadAt(frame, off+4); err != nil {
			return err
		}
		if l.opts.Tracer != nil {
			l.opts.Tracer.Record(l.region, trace.Read, int(seq))
		}
		var err error
		plain, err = l.sealer.OpenInto(plain[:0], walAAD, seq, uint64(seq), frame)
		if err != nil {
			return fmt.Errorf("wal: frame %d fails authentication: %w", seq, err)
		}
		if plain[0] == recEntry {
			e, err := decodeEntry(plain[1:], schemas)
			if err != nil {
				return fmt.Errorf("wal: frame %d: %w", seq, err)
			}
			if e.Op == OpCreateTable {
				schemas[strings.ToLower(e.Def.Name)] = e.Def.Schema
			}
			if e.Op == OpDropTable {
				delete(schemas, strings.ToLower(e.Table))
			}
			if err := fn(e); err != nil {
				return err
			}
		}
		off += 4 + n
		seq++
	}
	return nil
}

// decodeEntry parses one entry record (after the recEntry tag).
func decodeEntry(b []byte, schemas map[string]*table.Schema) (Entry, error) {
	if len(b) < 2 {
		return Entry{}, fmt.Errorf("truncated entry")
	}
	op := Op(b[0])
	nameLen := int(b[1])
	if len(b) < 2+nameLen {
		return Entry{}, fmt.Errorf("truncated table name")
	}
	name := string(b[2 : 2+nameLen])
	rest := b[2+nameLen:]
	switch op {
	case OpInsert, OpUpdate, OpDelete:
		s, ok := schemas[strings.ToLower(name)]
		if !ok {
			return Entry{}, fmt.Errorf("row entry for table %q with no journaled definition", name)
		}
		row, used, err := s.DecodeRecord(rest)
		if err != nil {
			return Entry{}, err
		}
		if !used {
			return Entry{}, fmt.Errorf("row entry for %q decodes as a dummy", name)
		}
		return Entry{Op: op, Table: name, Row: row}, nil
	case OpDropTable:
		return Entry{Op: op, Table: name}, nil
	case OpCreateTable:
		def, err := decodeDef(name, rest)
		if err != nil {
			return Entry{}, err
		}
		return Entry{Op: op, Table: name, Def: def}, nil
	}
	return Entry{}, fmt.Errorf("unknown op %d", op)
}

// decodeDef parses a CREATE TABLE record body after the table name.
func decodeDef(name string, b []byte) (*TableDef, error) {
	bad := fmt.Errorf("truncated definition of %q", name)
	if len(b) < 2 {
		return nil, bad
	}
	def := &TableDef{Name: name, Kind: b[0], ObliviousInserts: b[1]&1 != 0}
	b = b[2:]
	capacity, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, bad
	}
	def.Capacity = int(capacity)
	b = b[k:]
	if len(b) < 1 {
		return nil, bad
	}
	keyLen := int(b[0])
	if len(b) < 1+keyLen {
		return nil, bad
	}
	def.KeyColumn = string(b[1 : 1+keyLen])
	b = b[1+keyLen:]
	if len(b) < 1 {
		return nil, bad
	}
	ncols := int(b[0])
	b = b[1:]
	cols := make([]table.Column, 0, ncols)
	for i := 0; i < ncols; i++ {
		if len(b) < 1 {
			return nil, bad
		}
		cn := int(b[0])
		if len(b) < 1+cn+1 {
			return nil, bad
		}
		col := table.Column{Name: string(b[1 : 1+cn]), Kind: table.Kind(b[1+cn])}
		b = b[2+cn:]
		width, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, bad
		}
		col.Width = int(width)
		b = b[k:]
		cols = append(cols, col)
	}
	s, err := table.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("definition of %q: %w", name, err)
	}
	def.Schema = s
	return def, nil
}

// ShouldCheckpoint reports whether the file has outgrown the configured
// auto-checkpoint threshold.
func (l *Log) ShouldCheckpoint() bool {
	return l.opts.AutoCheckpointBytes > 0 && l.size >= l.opts.AutoCheckpointBytes
}

// Checkpoint compacts the log: fill stages a snapshot of the live state
// (via AppendCreate/Append), which is committed into a temporary file
// that then atomically replaces the log. The old file's history — and
// with it every checkpointed entry — is gone afterwards; the snapshot is
// the new replay baseline. Nothing may be staged when Checkpoint is
// called. On any failure the original file is untouched.
func (l *Log) Checkpoint(fill func() error) error {
	if l.broken != nil {
		return l.broken
	}
	if len(l.offs) != 0 {
		return fmt.Errorf("wal: checkpoint with %d records staged", len(l.offs))
	}
	tmpPath := l.path + ".ckpt"
	tmpf, err := l.opts.openFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if err := tmpf.Truncate(0); err != nil {
		tmpf.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmpf.WriteAt([]byte(magic), 0); err != nil {
		tmpf.Close()
		os.Remove(tmpPath)
		return err
	}

	// Redirect the log at the temp file; fill and Commit write there.
	saved := *l
	l.f = tmpf
	l.seq = 0
	l.size = int64(len(magic))
	l.entries = 0
	l.commits = 0
	abort := func(err error) error {
		mono := [3]uint64{l.totalEntries, l.totalCommits, l.totalCheckpoints}
		*l = saved
		l.totalEntries, l.totalCommits, l.totalCheckpoints = mono[0], mono[1], mono[2]
		tmpf.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := fill(); err != nil {
		return abort(fmt.Errorf("wal: checkpoint snapshot: %w", err))
	}
	if err := l.Commit(); err != nil {
		return abort(err)
	}
	// The rename must find the snapshot on disk regardless of Options.Sync.
	if err := tmpf.Sync(); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		return abort(err)
	}
	syncDir(l.path)
	saved.f.Close()
	l.totalCheckpoints++
	return nil
}

// syncDir best-effort fsyncs the directory holding path, making a
// just-renamed file durable.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Close releases the file handle. Staged records are discarded (they
// were never acknowledged).
func (l *Log) Close() error {
	l.arena = nil
	l.offs = nil
	return l.f.Close()
}
