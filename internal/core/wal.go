package core

import (
	"fmt"
	"sort"
	"strings"

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
// pass per flat table it flushed to, then the index undo row by row. A
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
		RecursiveORAM:    t.recORAM,
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
	if db.wal == nil || db.recovering || db.inUndo {
		return nil
	}
	return db.wal.Append(op, t.name, t.schema, row)
}

// trackingMutations reports whether mutation bodies must record undo
// entries and journal records: yes under a journal or inside a run,
// which may have to roll back statements that succeeded, never while
// replaying or unwinding.
func (db *DB) trackingMutations() bool {
	return (db.wal != nil || db.inRun) && !db.recovering && !db.inUndo
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
// During recovery or unwinding it is a passthrough.
func (db *DB) endMutation(err error, walMark, undoMark int) error {
	if db.recovering || db.inUndo {
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
// reverses, rewinds the journal stage, restores each flat table those
// statements flushed to, and replays the rest of the undo log (newest
// first) down to the marks.
func (db *DB) rollbackTo(walMark, undoMark int) error {
	db.dropPending(undoMark)
	if db.wal != nil {
		db.wal.Rewind(walMark)
	}
	db.inUndo = true
	defer func() { db.inUndo = false }()
	firstErr := db.restoreFlat(db.undo[undoMark:])
	for i := len(db.undo) - 1; i >= undoMark; i-- {
		if err := db.applyUndo(db.undo[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.undo = db.undo[:undoMark]
	return firstErr
}

// restoreFlat makes one storage.Flat.Restore pass over each flat table
// that a record in recs flushed a mutation to, in the order the records
// first reached it, handing it their Priors oldest first. A table gets
// its pass whether or not the flush changed a slot: which tables are
// restored follows from which mutations were flushed — the statements'
// kinds and plans, and where a fault cut the run — never from the data.
func (db *DB) restoreFlat(recs []undoRec) error {
	var tables []*Table
	priors := make(map[*Table][]*storage.Prior)
	for _, r := range recs {
		if r.flat == nil {
			continue
		}
		if _, ok := priors[r.t]; !ok {
			tables = append(tables, r.t)
		}
		priors[r.t] = append(priors[r.t], r.flat)
	}
	for _, t := range tables {
		if err := t.flat.Restore(priors[t]); err != nil {
			return err
		}
	}
	return nil
}

// undoRec is one entry of the in-memory undo log, recorded by mutation
// bodies so a failed statement (or group of a run) restores the engine
// to the state the durable journal describes. A row mutation keeps the
// rows it removed or rewrote (pre) and those it added (post), which
// undo the index, and — once its flat mutation is flushed — the Prior
// that undoes the flat table; a CREATE keeps only the table to drop.
type undoRec struct {
	create    bool
	t         *Table
	pre, post []table.Row
	flat      *storage.Prior
}

// applyUndo reverses one undo record's DDL and index work; its flat
// side was restored by slot already (restoreFlat).
func (db *DB) applyUndo(r undoRec) error {
	t := r.t
	if r.create {
		if t.index != nil {
			t.index.Close()
		}
		delete(db.tables, strings.ToLower(t.name))
		db.publishCatalog()
		return nil
	}
	if t.index == nil {
		return nil
	}
	// The index work may have got through any prefix of the rows, and
	// each row is present as at most one of its images: removing one
	// entry equal to each image, then reinserting pre, leaves exactly
	// pre. Absence is not an error; no entry has id ^0, so an absent
	// row still pays one padded delete. The [k, k] lookup that finds the
	// equal entry concedes the key's duplicate count, like any §4.1
	// index range.
	for _, rows := range [][]table.Row{r.post, r.pre} {
		for _, row := range rows {
			k, none := row[t.keyCol].AsInt(), ^uint32(0)
			id := none
			if _, err := t.index.RangeScan(k, k, func(i uint32, got table.Row) error {
				if id == none && rowsEqual(got, row) {
					id = i
				}
				return nil
			}); err != nil {
				return err
			}
			if _, err := t.index.DeleteEntry(k, id); err != nil {
				return err
			}
		}
	}
	for _, row := range r.pre {
		if err := t.index.Insert(row); err != nil {
			return err
		}
	}
	return nil
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
				RecursiveORAM:    d.RecursiveORAM,
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
