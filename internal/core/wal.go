package core

import (
	"fmt"
	"sort"
	"strings"

	"oblidb/internal/indexed"
	"oblidb/internal/oberr"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

// This file wires the durable journal (internal/wal) into the engine.
// Every mutating statement runs inside an implicit transaction: its
// journal records are staged as its body runs, and endMutation flushes
// the queued flat mutations (batch.go) and commits them — or rewinds the
// stage and undoes the in-memory changes on failure: one slot-restoring
// pass per flat table it flushed to, one block-restoring pass per index. A
// write run (ExecutePlanBatch) stretches the same mechanism across its
// groups, with one flush and one commit for the run. Staged records
// reach the file only through a commit that follows a successful flush,
// so the log can never describe state that did not exist (the seed
// logged ahead of the pass and could).

// AttachWAL starts journaling this database's mutations into l. The log
// is immediately checkpointed to a snapshot of the current catalog and
// rows, so the file is self-contained: Recover needs no pre-existing
// tables. Journaling leaks only mutation counts and schemas — public
// under the paper's model (§3).
func (db *DB) AttachWAL(l *wal.Log) error {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return err
	}
	if db.wal != nil {
		return fmt.Errorf("core: a journal is already attached")
	}
	if l.Staged() != 0 {
		return fmt.Errorf("core: journal has %d staged records", l.Staged())
	}
	db.wal = l
	if err := db.checkpointLocked(); err != nil {
		db.wal = nil
		return err
	}
	return nil
}

// DetachWAL stops journaling.
func (db *DB) DetachWAL() {
	db.lockWrite()
	defer db.mu.Unlock()
	db.wal = nil
}

// Checkpoint compacts the journal to a snapshot of the live state.
func (db *DB) Checkpoint() error {
	db.lockWrite()
	defer db.mu.Unlock()
	if err := db.refuseBroken(); err != nil {
		return err
	}
	if db.wal == nil {
		return fmt.Errorf("core: no journal attached")
	}
	return db.checkpointLocked()
}

// checkpointLocked snapshots every table — definition plus live rows, in
// sorted name order — into a fresh journal file that atomically replaces
// the old one.
func (db *DB) checkpointLocked() error {
	return db.wal.Checkpoint(func() error {
		names := make([]string, 0, len(db.tables))
		for n := range db.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t := db.tables[n]
			if err := db.wal.AppendCreate(db.tableDef(t)); err != nil {
				return err
			}
			rows, err := db.liveRows(t)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := db.wal.Append(wal.OpInsert, t.name, t.schema, r); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// tableDef captures a table's journaled definition. Capacity reflects
// the current flat capacity so recovery re-creates the grown table
// without replaying the growth.
func (db *DB) tableDef(t *Table) wal.TableDef {
	def := wal.TableDef{
		Name:             t.name,
		Schema:           t.schema,
		Kind:             uint8(t.kind),
		Capacity:         t.capacity,
		ObliviousInserts: t.oblivIn,
	}
	if t.flat != nil {
		def.Capacity = t.flat.Capacity()
	}
	if t.keyCol >= 0 {
		def.KeyColumn = t.schema.Col(t.keyCol).Name
	}
	return def
}

// maybeCheckpointLocked compacts the journal when it has outgrown its
// configured threshold. A failed checkpoint is not an error for the
// statement that triggered it — the old file remains valid and the next
// commit retries.
func (db *DB) maybeCheckpointLocked() {
	if db.wal != nil && db.wal.ShouldCheckpoint() {
		_ = db.checkpointLocked()
	}
}

// logMutation stages one journal record for an applied row mutation.
func (db *DB) logMutation(op wal.Op, t *Table, row table.Row) error {
	if db.wal == nil || db.recovering {
		return nil
	}
	return db.wal.Append(op, t.name, t.schema, row)
}

// trackingMutations reports whether mutation bodies must record undo
// entries and journal records: yes under a journal or inside a run,
// which may have to roll back statements that succeeded, never while
// replaying.
func (db *DB) trackingMutations() bool {
	return (db.wal != nil || db.inRun) && !db.recovering
}

// trackIndex records a tracked statement's changes to t's index in one
// indexed.Prior on its own undo record, until the returned func runs.
func (db *DB) trackIndex(t *Table) func() {
	if t.index == nil || !db.trackingMutations() {
		return func() {}
	}
	db.undo = append(db.undo, undoRec{t: t, index: t.index.Track()})
	return t.index.Untrack
}

// mutationMarks snapshots the journal stage and undo log at statement
// entry, so a failure can rewind exactly this statement's effects.
func (db *DB) mutationMarks() (walMark, undoMark int) {
	if db.wal != nil {
		walMark = db.wal.Staged()
	}
	return walMark, len(db.undo)
}

// endMutation finishes one mutating statement: on error, its queued
// flat mutations are dropped, its staged journal records discarded and
// its in-memory changes undone; on success, the queued flat mutations
// flush and the staged batch commits durably. A write run calls it only
// to undo a failed group, and flushes and commits once at its end.
// During recovery it is a passthrough.
func (db *DB) endMutation(err error, walMark, undoMark int) error {
	if db.recovering {
		return err
	}
	if err == nil {
		err = db.flushAll()
	}
	if err != nil {
		if rerr := db.rollbackTo(walMark, undoMark); rerr != nil {
			return db.latchBroken(err, rerr)
		}
		return err
	}
	return db.commitLocked(walMark, undoMark)
}

// latchBroken marks the engine broken: a statement failed AND the undo
// replay that should have contained it failed too (a second store
// fault mid-rollback), so the in-memory state no longer matches the
// journal. Every later statement is refused with the same typed
// CodeEngineFailed error — the containment guarantee is honest: rather
// than serve potentially wrong answers, the engine insists on being
// rebuilt from the journal (Recover on a fresh engine), exactly what a
// crash would force.
func (db *DB) latchBroken(err, rerr error) error {
	db.broken = oberr.Wrapf(oberr.CodeEngineFailed, err,
		"core: rollback failed (%v); engine state is untrusted, recover from the journal", rerr)
	return db.broken
}

// refuseBroken is the one check of the latch. Every entry point that
// runs a statement or writes the journal calls it under the database
// lock before it touches rows: an untrusted engine must neither answer
// nor overwrite the journal, the only state recovery can use.
func (db *DB) refuseBroken() error { return db.broken }

// Broken reports the containment-failure latch: nil while the engine's
// in-memory state is trustworthy, the typed CodeEngineFailed error
// after a failed rollback. The chaos harness polls it to decide when
// to recover from the journal.
func (db *DB) Broken() error {
	db.lockShared()
	defer db.mu.RUnlock()
	return db.broken
}

// commitLocked makes the staged batch durable and clears the undo log.
// If the journal write fails, the in-memory changes are rolled back too:
// acknowledged means durable.
func (db *DB) commitLocked(walMark, undoMark int) error {
	if db.wal != nil {
		if err := db.wal.Commit(); err != nil {
			if rerr := db.rollbackTo(walMark, undoMark); rerr != nil {
				return db.latchBroken(fmt.Errorf("core: journal commit failed: %w", err), rerr)
			}
			return fmt.Errorf("core: journal commit failed, changes rolled back: %w", err)
		}
		db.maybeCheckpointLocked()
	}
	db.undo = db.undo[:0]
	return nil
}

// rollbackTo drops the queued flat mutations of the statements it
// reverses, rewinds the journal stage, drops the tables they created and
// restores each other table they changed: its flat table, if flushed to,
// then its index, each in one Restore over their Priors, oldest first.
// Which tables follows from the statements' kinds and plans and where a
// fault cut the run, never from the data.
func (db *DB) rollbackTo(walMark, undoMark int) error {
	db.dropPending(undoMark)
	if db.wal != nil {
		db.wal.Rewind(walMark)
	}
	recs := db.undo[undoMark:]
	db.undo = db.undo[:undoMark]
	done := make(map[*Table]bool)
	for i, r := range recs {
		if done[r.t] {
			continue
		}
		done[r.t] = true
		if r.create {
			if r.t.index != nil {
				r.t.index.Close()
			}
			delete(db.tables, strings.ToLower(r.t.name))
			db.publishCatalog()
			continue
		}
		var flat []*storage.Prior
		var index []*indexed.Prior
		for _, q := range recs[i:] {
			if q.t == r.t && q.flat != nil {
				flat = append(flat, q.flat)
			}
			if q.t == r.t && q.index != nil {
				index = append(index, q.index)
			}
		}
		if len(flat) > 0 {
			if err := r.t.flat.Restore(flat); err != nil {
				return err
			}
		}
		if len(index) > 0 {
			if err := r.t.index.Restore(index); err != nil {
				return err
			}
		}
	}
	return nil
}

// undoRec is one entry of the in-memory undo log, recorded by mutation
// bodies so a failed statement (or group of a run) restores the engine
// to the state the durable journal describes: the Prior of one flat
// mutation, once it is flushed, or of one statement's index work, or,
// for a CREATE, the table to drop.
type undoRec struct {
	create bool
	t      *Table
	flat   *storage.Prior
	index  *indexed.Prior
}

// Recover rebuilds this database from a journal, standard redo-recovery
// style: committed entries are folded into each table's final row
// multiset inside the enclave — inserts and update post-images add a
// row, deletes remove one equal row, journaled DDL creates and drops
// tables — and the result is bulk-loaded. The database must be empty;
// the journal carries the catalog. Recovery leaks only the log length
// and the final table sizes.
func (db *DB) Recover(l *wal.Log) error {
	db.lockWrite()
	defer db.mu.Unlock()
	if len(db.tables) != 0 {
		return fmt.Errorf("core: recovery requires an empty database, have %d tables", len(db.tables))
	}
	db.recovering = true
	defer func() { db.recovering = false }()
	state := make(map[string][]table.Row)
	err := l.Replay(func(e wal.Entry) error {
		switch e.Op {
		case wal.OpCreateTable:
			d := e.Def
			opts := TableOptions{
				Kind:             StorageKind(d.Kind),
				KeyColumn:        d.KeyColumn,
				Capacity:         d.Capacity,
				ObliviousInserts: d.ObliviousInserts,
			}
			if _, err := db.createTableBody(d.Name, d.Schema, opts); err != nil {
				return err
			}
			state[strings.ToLower(d.Name)] = nil
			return nil
		case wal.OpDropTable:
			if err := db.dropTableBody(e.Table); err != nil {
				return err
			}
			delete(state, strings.ToLower(e.Table))
			return nil
		case wal.OpInsert, wal.OpUpdate:
			key := strings.ToLower(e.Table)
			if _, ok := state[key]; !ok {
				return fmt.Errorf("core: journal mutates %q before defining it", e.Table)
			}
			state[key] = append(state[key], e.Row)
			return nil
		case wal.OpDelete:
			key := strings.ToLower(e.Table)
			rows := state[key]
			for i, r := range rows {
				if rowsEqual(r, e.Row) {
					state[key] = append(rows[:i], rows[i+1:]...)
					return nil
				}
			}
			return fmt.Errorf("core: journal deletes a row absent from the replayed state")
		}
		return fmt.Errorf("core: unknown WAL op %d", e.Op)
	})
	if err != nil {
		return err
	}
	// Load in sorted name order: map order would randomize the replay
	// trace run to run, which both breaks trace comparisons and is noise
	// the host need not see.
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := state[name]
		if len(rows) == 0 {
			continue
		}
		if err := db.bulkLoadBody(name, rows); err != nil {
			return err
		}
	}
	return nil
}

// WALStats is a metrics snapshot of the attached journal.
type WALStats struct {
	// Attached reports whether a journal is attached.
	Attached bool
	// Entries and Commits are monotonic totals across checkpoints.
	Entries, Commits uint64
	// Checkpoints counts completed compactions.
	Checkpoints uint64
	// SizeBytes is the committed size of the current file.
	SizeBytes int64
}

// WALStats reports journal counters (zero when none is attached).
func (db *DB) WALStats() WALStats {
	db.lockWrite()
	defer db.mu.Unlock()
	if db.wal == nil {
		return WALStats{}
	}
	return WALStats{
		Attached:    true,
		Entries:     db.wal.TotalEntries(),
		Commits:     db.wal.TotalCommits(),
		Checkpoints: db.wal.Checkpoints(),
		SizeBytes:   db.wal.SizeBytes(),
	}
}

func rowsEqual(a, b table.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
