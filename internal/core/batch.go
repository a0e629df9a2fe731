package core

import (
	"oblidb/internal/storage"
)

// This file holds the bracket's pending flat mutations. ObliDB's flat
// method makes every write one full oblivious pass over the table
// (§3.1), so a run of writes that each paid its own pass would pay the
// table size once per statement. Instead a write body does its index
// work, validation, undo and journal records at once, in statement
// order, and queues its flat mutation; the bracket's end flushes the
// queue with one storage.Flat.ApplyBatch per table — one read and one
// write per block for the whole run. A single ExecutePlan write is a
// run of one; ExecutePlanBatch runs many.
//
// Whatever reads a table's flat representation inside a bracket — a
// flat-only table's match pass, a checkpoint's scan — flushes that
// table's queue first, so it sees every earlier statement. How many
// passes a run makes, and over which tables, therefore follows from its
// statements' kinds, tables and plans alone. A tracked mutation's flush
// gives its undo record a storage.Prior — the slots the pass changed
// and what they held — so a rollback restores each table by slot in
// one pass (wal.go).

// flatOp is one queued flat mutation: its table, and its undo record
// (-1 when the bracket is untracked).
type flatOp struct {
	t    *Table
	mut  storage.Mutation
	undo int
}

// queueFlat queues one flat mutation on the bracket's pending list,
// with an undo record for its Prior when the bracket is tracked.
func (db *DB) queueFlat(t *Table, m storage.Mutation) {
	undo := -1
	if db.trackingMutations() {
		undo = len(db.undo)
		db.undo = append(db.undo, undoRec{t: t})
	}
	db.pending = append(db.pending, flatOp{t: t, mut: m, undo: undo})
}

// flushFlat applies t's queued mutations in one batch, each tracked one
// recording its changes in a Prior on its undo record. They leave the
// list before the pass starts: a pass cut short by a fault has touched
// the table, so rollback must restore it.
func (db *DB) flushFlat(t *Table) error {
	var muts []storage.Mutation
	keep := db.pending[:0]
	for _, op := range db.pending {
		if op.t != t {
			keep = append(keep, op)
			continue
		}
		if op.undo >= 0 {
			op.mut.Prior = new(storage.Prior)
			db.undo[op.undo].flat = op.mut.Prior
		}
		muts = append(muts, op.mut)
	}
	clear(db.pending[len(keep):])
	db.pending = keep
	if len(muts) == 0 {
		return nil
	}
	return db.applyFlat(t, muts)
}

// flushAll flushes every table with queued mutations, in the order the
// run first touched them.
func (db *DB) flushAll() error {
	for len(db.pending) > 0 {
		if err := db.flushFlat(db.pending[0].t); err != nil {
			return err
		}
	}
	return nil
}

// dropPending discards the queued mutations of the statements being
// rolled back — those whose undo record is at or past undoMark, and any
// untracked ones. They never reached the table, so there is nothing of
// theirs to restore.
func (db *DB) dropPending(undoMark int) {
	keep := db.pending[:0]
	for _, op := range db.pending {
		if op.undo >= 0 && op.undo < undoMark {
			keep = append(keep, op)
		}
	}
	clear(db.pending[len(keep):])
	db.pending = keep
}

// applyFlat applies mutations to t's flat table now. It first grows
// the table until the inserts fit. A batch of inserts only that fits
// behind the append cursor takes the constant-time InsertFast path
// (unless the table asked for oblivious inserts); anything else is one
// ApplyBatch pass.
func (db *DB) applyFlat(t *Table, muts []storage.Mutation) error {
	inserts := 0
	for _, m := range muts {
		if m.Kind == storage.MutInsert {
			inserts++
		}
	}
	if err := db.growFlat(t, inserts); err != nil {
		return err
	}
	if t.oblivIn || inserts < len(muts) || inserts > t.flat.AppendRoom() {
		_, err := t.flat.ApplyBatch(muts)
		return err
	}
	for _, m := range muts {
		if err := t.flat.InsertFast(m.Row, m.Prior); err != nil {
			return err
		}
	}
	return nil
}

// growFlat doubles t's flat table by copying (§3: capacity "can be
// increased later by copying to a new, larger table") until n more rows
// fit. The growth is public — table sizes always are.
func (db *DB) growFlat(t *Table, n int) error {
	for t.flat.NumRows()+n > t.flat.Capacity() {
		bigger, err := t.flat.Expand(t.name+".flat", 2*t.flat.Capacity())
		if err != nil {
			return err
		}
		t.flat = bigger
	}
	return nil
}
