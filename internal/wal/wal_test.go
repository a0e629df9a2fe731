package wal

import (
	"os"
	"path/filepath"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func walSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "s", Kind: table.KindString, Width: 10},
	)
}

func walDef() TableDef {
	return TableDef{Name: "t", Schema: walSchema(), Kind: 2, KeyColumn: "k",
		Capacity: 64, ObliviousInserts: true}
}

func openLog(t *testing.T, path string, key []byte, opts Options) *Log {
	t.Helper()
	l, err := Open(path, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func row(k int64, s string) table.Row {
	return table.Row{table.Int(k), table.Str(s)}
}

// seedLog journals the table definition plus one committed batch of
// row mutations.
func seedLog(t *testing.T, l *Log) {
	t.Helper()
	if err := l.AppendCreate(walDef()); err != nil {
		t.Fatal(err)
	}
	s := walSchema()
	if err := l.Append(OpInsert, "t", s, row(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(OpDelete, "t", s, row(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(OpUpdate, "t", s, row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T, l *Log) []Entry {
	t.Helper()
	var got []Entry
	if err := l.Replay(func(e Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendCommitReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	l := openLog(t, path, key, Options{})
	seedLog(t, l)

	if l.Len() != 4 || l.Commits() != 1 {
		t.Fatalf("Len, Commits = %d, %d; want 4, 1", l.Len(), l.Commits())
	}
	got := collect(t, l)
	if len(got) != 4 {
		t.Fatalf("replayed %d entries, want 4", len(got))
	}
	def := got[0]
	if def.Op != OpCreateTable || def.Def == nil {
		t.Fatalf("entry 0 = %+v, want a create", def)
	}
	want := walDef()
	if def.Def.Name != want.Name || def.Def.Kind != want.Kind ||
		def.Def.KeyColumn != want.KeyColumn || def.Def.Capacity != want.Capacity ||
		!def.Def.ObliviousInserts {
		t.Fatalf("journaled definition = %+v, want %+v", def.Def, want)
	}
	if len(def.Def.Schema.Columns()) != 2 {
		t.Fatalf("journaled schema has %d columns", len(def.Def.Schema.Columns()))
	}
	ops := []Op{OpCreateTable, OpInsert, OpDelete, OpUpdate}
	for i, e := range got {
		if e.Op != ops[i] {
			t.Fatalf("entry %d op = %d, want %d", i, e.Op, ops[i])
		}
	}
	if !got[3].Row[0].Equal(table.Int(2)) || !got[3].Row[1].Equal(table.Str("b")) {
		t.Fatalf("entry 3 row = %v", got[3].Row)
	}
}

func TestReopenKeepsCommittedDropsStaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	l := openLog(t, path, key, Options{})
	seedLog(t, l)
	// Staged but never committed: must not survive the reopen.
	if err := l.Append(OpInsert, "t", walSchema(), row(9, "x")); err != nil {
		t.Fatal(err)
	}
	if l.Staged() != 1 {
		t.Fatalf("Staged = %d", l.Staged())
	}
	l.Close()

	l2 := openLog(t, path, key, Options{})
	if l2.Len() != 4 || l2.Commits() != 1 {
		t.Fatalf("after reopen: Len, Commits = %d, %d; want 4, 1", l2.Len(), l2.Commits())
	}
	if got := collect(t, l2); len(got) != 4 {
		t.Fatalf("after reopen: replayed %d entries, want 4", len(got))
	}
}

func TestWrongKeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{})
	seedLog(t, l)
	l.Close()
	if _, err := Open(path, crypt.NewRandomKey(), Options{}); err == nil {
		t.Fatal("opening with the wrong key succeeded")
	}
}

func TestTornTailTruncated(t *testing.T) {
	cases := []struct {
		name string
		tail []byte
	}{
		{"torn length prefix", []byte{0xAB, 0xCD}},
		{"torn frame body", []byte{40, 0, 0, 0, 1, 2, 3}},
		{"garbage frame at EOF", append([]byte{8, 0, 0, 0}, make([]byte, 8)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			key := crypt.NewRandomKey()
			l := openLog(t, path, key, Options{})
			seedLog(t, l)
			size := l.SizeBytes()
			l.Close()

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2 := openLog(t, path, key, Options{})
			if l2.Len() != 4 || l2.SizeBytes() != size {
				t.Fatalf("after torn tail: Len=%d size=%d, want 4, %d", l2.Len(), l2.SizeBytes(), size)
			}
			if got := collect(t, l2); len(got) != 4 {
				t.Fatalf("after torn tail: replayed %d entries", len(got))
			}
		})
	}
}

func TestUncommittedBatchOnDiskDropped(t *testing.T) {
	// A batch that reached the file but whose commit marker did not (the
	// crash window Commit's single write narrows but the OS does not
	// close) must be truncated on reopen. Simulate it by chopping the
	// commit marker off the end of a second committed batch.
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	l := openLog(t, path, key, Options{})
	seedLog(t, l)
	firstSize := l.SizeBytes()
	if err := l.Append(OpInsert, "t", walSchema(), row(7, "g")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	secondSize := l.SizeBytes()
	l.Close()

	// Drop the last 10 bytes: the second batch's commit marker is torn.
	if err := os.Truncate(path, secondSize-10); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, path, key, Options{})
	if l2.Len() != 4 || l2.SizeBytes() != firstSize {
		t.Fatalf("Len=%d size=%d, want 4, %d", l2.Len(), l2.SizeBytes(), firstSize)
	}
}

func TestMidFileTamperingDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	l := openLog(t, path, key, Options{})
	seedLog(t, l)
	if err := l.Append(OpInsert, "t", walSchema(), row(7, "g")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip one byte inside the first frame's sealed body: corruption
	// *followed by* intact data is tampering, not a torn write.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, key, Options{}); err == nil {
		t.Fatal("mid-file tampering went undetected")
	}
}

func TestRewindDiscardsStaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{})
	if err := l.AppendCreate(walDef()); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	s := walSchema()
	mark := l.Staged()
	if err := l.Append(OpInsert, "t", s, row(1, "a")); err != nil {
		t.Fatal(err)
	}
	keep := l.Staged()
	if err := l.Append(OpInsert, "t", s, row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(OpInsert, "t", s, row(3, "c")); err != nil {
		t.Fatal(err)
	}
	l.Rewind(keep)
	if l.Staged() != 1 {
		t.Fatalf("Staged after partial rewind = %d", l.Staged())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != 2 || !got[1].Row[0].Equal(table.Int(1)) {
		t.Fatalf("after rewind+commit replayed %v", got)
	}

	// Rewinding everything staged makes the next Commit a no-op.
	if err := l.Append(OpInsert, "t", s, row(4, "d")); err != nil {
		t.Fatal(err)
	}
	l.Rewind(mark)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len after full rewind = %d", l.Len())
	}
}

func TestCheckpointCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	key := crypt.NewRandomKey()
	l := openLog(t, path, key, Options{})
	if err := l.AppendCreate(walDef()); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	s := walSchema()
	for i := 0; i < 50; i++ {
		if err := l.Append(OpInsert, "t", s, row(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(OpDelete, "t", s, row(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	bigSize := l.SizeBytes()
	totalBefore := l.TotalEntries()

	// The live state is empty except the table itself: the snapshot is
	// one definition record.
	err := l.Checkpoint(func() error { return l.AppendCreate(walDef()) })
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || l.Commits() != 1 {
		t.Fatalf("after checkpoint: Len, Commits = %d, %d; want 1, 1", l.Len(), l.Commits())
	}
	if l.SizeBytes() >= bigSize {
		t.Fatalf("checkpoint did not shrink the file: %d -> %d", bigSize, l.SizeBytes())
	}
	if l.Checkpoints() != 1 {
		t.Fatalf("Checkpoints = %d", l.Checkpoints())
	}
	if l.TotalEntries() != totalBefore+1 {
		t.Fatalf("TotalEntries = %d, want %d", l.TotalEntries(), totalBefore+1)
	}
	if got := collect(t, l); len(got) != 1 || got[0].Op != OpCreateTable {
		t.Fatalf("after checkpoint replayed %v", got)
	}
	l.Close()

	// The compacted file replays identically after reopen.
	l2 := openLog(t, path, key, Options{})
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("reopened checkpoint replayed %d entries", len(got))
	}
}

func TestCheckpointAbortKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{})
	seedLog(t, l)
	err := l.Checkpoint(func() error { return os.ErrInvalid })
	if err == nil {
		t.Fatal("failing snapshot did not fail the checkpoint")
	}
	if l.Len() != 4 || l.Commits() != 1 {
		t.Fatalf("after aborted checkpoint: Len, Commits = %d, %d", l.Len(), l.Commits())
	}
	if got := collect(t, l); len(got) != 4 {
		t.Fatalf("after aborted checkpoint replayed %d entries", len(got))
	}
	if _, err := os.Stat(path + ".ckpt"); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint file left behind: %v", err)
	}
}

func TestShouldCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{AutoCheckpointBytes: 100})
	if l.ShouldCheckpoint() {
		t.Fatal("empty log wants a checkpoint")
	}
	seedLog(t, l)
	if !l.ShouldCheckpoint() {
		t.Fatal("oversized log does not want a checkpoint")
	}
}

func TestCommitEmptyIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{})
	size := l.SizeBytes()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.SizeBytes() != size || l.Commits() != 0 {
		t.Fatal("empty commit touched the file")
	}
}

func TestAppendCommitDoesNotAllocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l := openLog(t, path, crypt.NewRandomKey(), Options{})
	if err := l.AppendCreate(walDef()); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	s := walSchema()
	r := row(1, "a")
	// Warm the arena to its steady-state capacity: one batch of the size
	// the measured loop stages.
	for i := 0; i < 8; i++ {
		if err := l.Append(OpInsert, "t", s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			if err := l.Append(OpInsert, "t", s, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append+Commit allocates %.1f times per batch, want 0", allocs)
	}
}

// TestTraceShapeOblivious pins the paper's §3 claim: the journal's
// untrusted access stream is a function of public mutation counts and
// schemas only. Two same-shape workloads with different values must
// produce identical traces, both while logging and while replaying.
func TestTraceShapeOblivious(t *testing.T) {
	run := func(base int64, label string) (*trace.Tracer, *trace.Tracer) {
		dir := t.TempDir()
		logTr := trace.New()
		path := filepath.Join(dir, "j.wal")
		key := crypt.NewRandomKey()
		l := openLog(t, path, key, Options{Tracer: logTr})
		if err := l.AppendCreate(walDef()); err != nil {
			t.Fatal(err)
		}
		s := walSchema()
		for i := int64(0); i < 10; i++ {
			if err := l.Append(OpInsert, "t", s, row(base+i, label)); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		replayTr := trace.New()
		l2 := openLog(t, path, key, Options{Tracer: replayTr})
		if err := l2.Replay(func(Entry) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return logTr, replayTr
	}
	logA, repA := run(0, "aaa")
	logB, repB := run(1000, "zzz")
	if d := trace.Diff(logA, logB); d != "" {
		t.Fatalf("logging trace depends on values: %s", d)
	}
	if d := trace.Diff(repA, repB); d != "" {
		t.Fatalf("replay trace depends on values: %s", d)
	}
}
