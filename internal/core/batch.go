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
// flat-only table's match pass, an undo's removal, a checkpoint's scan
// — flushes that table's queue first, so it sees every earlier
// statement. How many passes a run makes, and over which tables,
// therefore follows from its statements' kinds, tables and plans alone.

// flatOp is one queued flat mutation: its table, and the undo record
// covering it (-1 when the bracket is untracked).
type flatOp struct {
	t    *Table
	mut  storage.Mutation
	undo int
}

// queueFlat queues one flat mutation on the bracket's pending list. A
// tracked body calls it after appending the mutation's undo record.
func (db *DB) queueFlat(t *Table, m storage.Mutation) {
	undo := -1
	if db.trackingMutations() {
		undo = len(db.undo) - 1
	}
	db.pending = append(db.pending, flatOp{t: t, mut: m, undo: undo})
}

// flushFlat applies t's queued mutations in one batch. They leave the
// list before the pass starts: a pass cut short by a fault has touched
// the table, so rollback must undo them in the flat table as well. It
// marks the undo records of the inserts that never landed unlanded, so
// their replay's removal pass matches nothing.
func (db *DB) flushFlat(t *Table) error {
	var muts []storage.Mutation
	var undos []int
	keep := db.pending[:0]
	for _, op := range db.pending {
		if op.t == t {
			muts = append(muts, op.mut)
			undos = append(undos, op.undo)
		} else {
			keep = append(keep, op)
		}
	}
	clear(db.pending[len(keep):])
	db.pending = keep
	if len(muts) == 0 {
		return nil
	}
	counts, err := db.applyFlat(t, muts)
	if err != nil {
		for i, m := range muts {
			if m.Kind == storage.MutInsert && undos[i] >= 0 && (i >= len(counts) || counts[i] == 0) {
				db.undo[undos[i]].unlanded = true
			}
		}
	}
	return err
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
// untracked ones — and marks their undo records, so the replay leaves
// the flat table alone for mutations it never saw.
func (db *DB) dropPending(undoMark int) {
	keep := db.pending[:0]
	for _, op := range db.pending {
		if op.undo >= 0 && op.undo < undoMark {
			keep = append(keep, op)
		} else if op.undo >= 0 {
			db.undo[op.undo].flatDropped = true
		}
	}
	clear(db.pending[len(keep):])
	db.pending = keep
}

// applyFlat applies mutations to t's flat table now and returns their
// counts — on failure, those of what landed (an insert counts 1 once it
// is placed and written). It first grows the table until the inserts
// fit. A batch of inserts only that fits behind the append cursor takes
// the constant-time InsertFast path (unless the table asked for
// oblivious inserts); anything else is one ApplyBatch pass.
func (db *DB) applyFlat(t *Table, muts []storage.Mutation) ([]int, error) {
	inserts := 0
	for _, m := range muts {
		if m.Kind == storage.MutInsert {
			inserts++
		}
	}
	if err := db.growFlat(t, inserts); err != nil {
		return nil, err
	}
	if t.oblivIn || inserts < len(muts) || inserts > t.flat.AppendRoom() {
		return t.flat.ApplyBatch(muts)
	}
	counts := make([]int, len(muts))
	for i, m := range muts {
		if err := t.flat.InsertFast(m.Row); err != nil {
			return counts, err
		}
		counts[i] = 1
	}
	return counts, nil
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
