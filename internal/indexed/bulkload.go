package indexed

import (
	"fmt"
	"sort"

	"oblidb/internal/table"
)

// BulkLoad fills an empty table bottom-up: packed record blocks first (one
// ORAM write per block of R rows), then leaf nodes at ~3/4 occupancy, then
// each internal level. The access pattern is a fixed function of the row
// count — every block of a freshly built tree is written exactly once in a
// deterministic order — so it leaks only the table size, like everything
// else. It avoids the per-insert worst-case padding that makes incremental
// loads O(N log² N). The table is empty, so the ORAM and the allocation
// state start afresh: staging beside earlier blocks would leave stale
// copies.
func (t *Table) BulkLoad(rows []table.Row) error {
	if t.height != 0 || t.rows != 0 {
		return fmt.Errorf("indexed: BulkLoad requires an empty table")
	}
	t.o.Reset()
	t.treeState = treeState{nextNode: uint32(t.dataBlocks)}
	if len(rows) == 0 {
		return nil
	}
	if len(rows) > t.maxRows {
		return fmt.Errorf("indexed: %d rows exceed capacity %d", len(rows), t.maxRows)
	}
	for _, r := range rows {
		if err := t.schema.ValidateRow(r); err != nil {
			return err
		}
	}
	// Sort by key; rowIDs are assigned in sorted order so composite
	// (key, rowID) order matches slice order.
	sorted := make([]table.Row, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i][t.keyCol].AsInt() < sorted[j][t.keyCol].AsInt()
	})

	type entry struct {
		key int64
		seq uint32 // rowID (leaf) or separator seq (internal)
		ptr uint32 // child id or rowID
	}
	entries := make([]entry, len(sorted))
	numBlocks := (len(sorted) + t.rpb - 1) / t.rpb
	for b := 0; b < numBlocks; b++ {
		for i := range t.buf {
			t.buf[i] = 0
		}
		t.buf[0] = kindRecord
		for j := 0; j < t.rpb; j++ {
			i := b*t.rpb + j
			if i >= len(sorted) {
				break // remaining slots stay zero, i.e. dummy records
			}
			if err := t.schema.EncodeRecordAt(t.buf[1:], j, sorted[i]); err != nil {
				return err
			}
			rowID := uint32(i)
			entries[i] = entry{key: sorted[i][t.keyCol].AsInt(), seq: rowID, ptr: rowID}
		}
		if err := t.o.BulkStage(b, t.buf); err != nil {
			return err
		}
	}
	t.nextRow = uint32(len(sorted))

	const fill = fanout * 3 / 4 // leave room for future inserts
	level := 0
	leaf := true
	var nd node
	for {
		numNodes := (len(entries) + fill - 1) / fill
		if len(entries) <= fanout {
			numNodes = 1
		}
		// Pre-allocate ids so leaves can set next pointers.
		ids := make([]uint32, numNodes)
		for i := range ids {
			id, err := t.allocNode()
			if err != nil {
				return err
			}
			ids[i] = id
		}
		parents := make([]entry, 0, numNodes)
		for i := 0; i < numNodes; i++ {
			lo := i * len(entries) / numNodes
			hi := (i + 1) * len(entries) / numNodes
			nd = node{leaf: leaf}
			if leaf {
				nd.n = hi - lo
				for j, e := range entries[lo:hi] {
					nd.keys[j] = e.key
					nd.seqs[j] = e.seq
					nd.ptrs[j] = e.ptr
				}
				if i+1 < numNodes {
					nd.next = ids[i+1] + 1
				}
			} else {
				// Internal: first child has no separator; separators come
				// from each subsequent child's leftmost composite key.
				nd.n = hi - lo - 1
				nd.ptrs[0] = entries[lo].ptr
				for j, e := range entries[lo+1 : hi] {
					nd.keys[j] = e.key
					nd.seqs[j] = e.seq
					nd.ptrs[j+1] = e.ptr
				}
			}
			if err := t.stageNode(ids[i], &nd); err != nil {
				return err
			}
			// This node's leftmost composite key becomes its parent
			// separator.
			parents = append(parents, entry{key: entries[lo].key, seq: entries[lo].seq, ptr: ids[i]})
		}
		level++
		if numNodes == 1 {
			t.root = ids[0]
			t.height = level
			t.rows = len(rows)
			// One bottom-up placement pass writes every staged block
			// straight into its bucket, leaving the stash empty instead of
			// flooded by 1/access eviction arithmetic (see Ring.BulkCommit).
			return t.o.BulkCommit()
		}
		entries = parents
		leaf = false
	}
}
