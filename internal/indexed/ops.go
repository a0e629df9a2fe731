package indexed

import (
	"fmt"

	"oblidb/internal/table"
)

// pathEntry records one node on a root-to-leaf descent together with its
// position in its parent, which splits and merges need.
type pathEntry struct {
	id          uint32
	nd          *node
	idxInParent int // -1 for the root
}

// dirtySet is an insertion-ordered set of modified nodes awaiting
// write-back. Order matters: flushing in a deterministic order keeps the
// physical access trace of two same-shape operations identical, which the
// trace-pinning tests (and the obliviousness argument they check) rely on.
type dirtySet struct {
	ids []uint32
	nds []*node
}

func (d *dirtySet) reset() {
	d.ids = d.ids[:0]
	d.nds = d.nds[:0]
}

func (d *dirtySet) put(id uint32, nd *node) {
	for i, x := range d.ids {
		if x == id {
			d.nds[i] = nd
			return
		}
	}
	d.ids = append(d.ids, id)
	d.nds = append(d.nds, nd)
}

func (d *dirtySet) del(id uint32) {
	for i, x := range d.ids {
		if x == id {
			d.ids = append(d.ids[:i], d.ids[i+1:]...)
			d.nds = append(d.nds[:i], d.nds[i+1:]...)
			return
		}
	}
}

func (t *Table) flushDirty() error {
	for i, id := range t.dirty.ids {
		if err := t.writeNode(id, t.dirty.nds[i]); err != nil {
			return err
		}
	}
	return nil
}

// descend walks from the root to the leaf whose range contains the
// composite key (key, seq), reading height nodes. The returned slice is
// scratch, valid until the next descend.
func (t *Table) descend(key, seq int64) ([]pathEntry, error) {
	t.path = t.path[:0]
	id := t.root
	idxInParent := -1
	for level := 0; level < t.height; level++ {
		nd, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		t.path = append(t.path, pathEntry{id: id, nd: nd, idxInParent: idxInParent})
		if nd.leaf {
			break
		}
		i := 0
		for i < nd.n && cmpKS(key, seq, nd.keys[i], nd.seq(i)) >= 0 {
			i++
		}
		idxInParent = i
		id = nd.ptrs[i]
	}
	if len(t.path) == 0 || !t.path[len(t.path)-1].nd.leaf {
		return nil, fmt.Errorf("indexed: descent did not reach a leaf (height %d)", t.height)
	}
	return t.path, nil
}

// lowerBound returns the first entry index in leaf nd with composite key
// >= (key, seq), possibly nd.n.
func lowerBound(nd *node, key, seq int64) int {
	i := 0
	for i < nd.n && cmpKS(nd.keys[i], nd.seq(i), key, seq) < 0 {
		i++
	}
	return i
}

// lookupTarget is the fixed access count of a point lookup at height h:
// h path reads, at most one next-leaf hop, one record-block read.
func lookupTarget(h int) int { return h + 2 }

// lookupEntry locates the first entry with the given key, returning its
// rowID. The access count so far is h or h+1; callers pad.
func (t *Table) lookupEntry(key int64) (uint32, bool, error) {
	if t.height == 0 {
		return 0, false, nil
	}
	path, err := t.descend(key, -1)
	if err != nil {
		return 0, false, err
	}
	leaf := path[len(path)-1].nd
	i := lowerBound(leaf, key, -1)
	if i == leaf.n {
		// The matching entry, if any, is the first entry of the next leaf.
		if leaf.next == 0 {
			return 0, false, nil
		}
		nxt, err := t.readNode(leaf.next - 1)
		if err != nil {
			return 0, false, err
		}
		leaf, i = nxt, 0
		if leaf.n == 0 {
			return 0, false, nil
		}
	}
	if leaf.keys[i] != key {
		return 0, false, nil
	}
	return leaf.ptrs[i], true, nil
}

// Lookup returns the first row whose key equals key, decoded into fresh
// memory. Every lookup at the same tree height performs exactly the same
// number of ORAM accesses.
func (t *Table) Lookup(key int64) (table.Row, bool, error) {
	t.beginOp(0)
	var row table.Row
	rowID, ok, err := t.lookupEntry(key)
	if err != nil {
		return nil, false, err
	}
	if ok {
		if row, err = t.readRecord(rowID); err != nil {
			return nil, false, err
		}
	}
	if err := t.padTo(lookupTarget(t.height)); err != nil {
		return nil, false, err
	}
	return row, ok, nil
}

// LookupInto is Lookup decoding the row into dst without allocating.
// String values alias an internal buffer and are valid only until the
// next operation on this table. Same fixed access count as Lookup.
func (t *Table) LookupInto(key int64, dst table.Row) (bool, error) {
	if len(dst) != t.schema.NumColumns() {
		return false, fmt.Errorf("indexed: LookupInto row has %d columns, schema has %d", len(dst), t.schema.NumColumns())
	}
	t.beginOp(0)
	rowID, ok, err := t.lookupEntry(key)
	if err != nil {
		return false, err
	}
	if ok {
		if err := t.readRecordInto(dst, rowID); err != nil {
			return false, err
		}
	}
	if err := t.padTo(lookupTarget(t.height)); err != nil {
		return false, err
	}
	return ok, nil
}

// insertTarget is the worst-case access count of an insertion when the
// tree height moves from hPre to hPost: hPre path reads + 1 record write +
// 2 node writes per split level + a new root.
func insertTarget(hPre, hPost int) int {
	h := hPre
	if hPost > h {
		h = hPost
	}
	return 3*h + 3
}

// Insert adds a row, padding to the worst-case access count so splits are
// invisible.
func (t *Table) Insert(r table.Row) error {
	if err := t.schema.ValidateRow(r); err != nil {
		return err
	}
	if t.rows >= t.maxRows {
		return fmt.Errorf("indexed: table %q is full (%d rows)", t.name, t.maxRows)
	}
	hPre := t.height
	t.beginOp(insertTarget(hPre, hPre+1))
	if err := t.insertInner(r); err != nil {
		return err
	}
	t.rows++
	return t.padTo(insertTarget(hPre, t.height))
}

func (t *Table) insertInner(r table.Row) error {
	key := r[t.keyCol].AsInt()
	rowID, err := t.allocRow()
	if err != nil {
		return err
	}
	if err := t.writeRecord(rowID, r); err != nil {
		return err
	}

	if t.height == 0 {
		leafID, err := t.allocNode()
		if err != nil {
			return err
		}
		nd := t.newNode()
		nd.leaf = true
		nd.n = 1
		nd.keys[0] = key
		nd.ptrs[0] = rowID
		nd.seqs[0] = rowID
		if err := t.writeNode(leafID, nd); err != nil {
			return err
		}
		t.root = leafID
		t.height = 1
		return nil
	}

	path, err := t.descend(key, int64(rowID))
	if err != nil {
		return err
	}
	t.dirty.reset()

	leafEnt := path[len(path)-1]
	leaf := leafEnt.nd
	pos := lowerBound(leaf, key, int64(rowID))
	insertLeafEntry(leaf, pos, key, rowID)
	t.dirty.put(leafEnt.id, leaf)

	// Split cascade, bottom-up.
	for level := len(path) - 1; level >= 0; level-- {
		nd := path[level].nd
		if nd.n <= fanout {
			break
		}
		newID, err := t.allocNode()
		if err != nil {
			return err
		}
		right, sepK, sepS := t.splitNode(nd)
		if nd.leaf {
			right.next = nd.next
			nd.next = newID + 1
		}
		t.dirty.put(newID, right)

		if level == 0 {
			rootID, err := t.allocNode()
			if err != nil {
				return err
			}
			root := t.newNode()
			root.n = 1
			root.keys[0] = sepK
			root.seqs[0] = uint32(sepS)
			root.ptrs[0] = path[0].id
			root.ptrs[1] = newID
			t.dirty.put(rootID, root)
			t.root = rootID
			t.height++
			break
		}
		parent := path[level-1].nd
		insertInternalEntry(parent, path[level].idxInParent, sepK, uint32(sepS), newID)
		t.dirty.put(path[level-1].id, parent)
	}

	return t.flushDirty()
}

// insertLeafEntry shifts entries right and inserts (key, rowID) at pos.
func insertLeafEntry(nd *node, pos int, key int64, rowID uint32) {
	for i := nd.n; i > pos; i-- {
		nd.keys[i] = nd.keys[i-1]
		nd.ptrs[i] = nd.ptrs[i-1]
		nd.seqs[i] = nd.seqs[i-1]
	}
	nd.keys[pos] = key
	nd.ptrs[pos] = rowID
	nd.seqs[pos] = rowID
	nd.n++
}

// insertInternalEntry inserts separator (sepK, sepS) with right child
// newID just after child childIdx.
func insertInternalEntry(nd *node, childIdx int, sepK int64, sepS, newID uint32) {
	for i := nd.n; i > childIdx; i-- {
		nd.keys[i] = nd.keys[i-1]
		nd.seqs[i] = nd.seqs[i-1]
	}
	for i := nd.n + 1; i > childIdx+1; i-- {
		nd.ptrs[i] = nd.ptrs[i-1]
	}
	nd.keys[childIdx] = sepK
	nd.seqs[childIdx] = sepS
	nd.ptrs[childIdx+1] = newID
	nd.n++
}

// splitNode splits an overflowing node in place, returning the new right
// sibling (arena-allocated) and the separator to push up.
func (t *Table) splitNode(nd *node) (right *node, sepK int64, sepS int64) {
	right = t.newNode()
	right.leaf = nd.leaf
	if nd.leaf {
		mid := (nd.n + 1) / 2
		right.n = nd.n - mid
		for i := 0; i < right.n; i++ {
			right.keys[i] = nd.keys[mid+i]
			right.ptrs[i] = nd.ptrs[mid+i]
			right.seqs[i] = nd.seqs[mid+i]
		}
		nd.n = mid
		return right, right.keys[0], right.seq(0)
	}
	mid := nd.n / 2
	sepK = nd.keys[mid]
	sepS = int64(nd.seqs[mid])
	right.n = nd.n - mid - 1
	for i := 0; i < right.n; i++ {
		right.keys[i] = nd.keys[mid+1+i]
		right.seqs[i] = nd.seqs[mid+1+i]
	}
	for i := 0; i <= right.n; i++ {
		right.ptrs[i] = nd.ptrs[mid+1+i]
	}
	nd.n = mid
	return right, sepK, sepS
}

// deleteTarget is the worst-case access count of a deletion at height h:
// up to 2h+1 reads locating the entry (descend, hop, re-descend), h
// sibling reads, 2h+2 writes, plus clearing the record slot.
func deleteTarget(h int) int { return 5*h + 4 }

// Delete removes the first row whose key equals key, padding to the
// worst-case access count so merges and borrows are invisible. It reports
// whether a row was deleted.
func (t *Table) Delete(key int64) (bool, error) { return t.delete(key, -1) }

// DeleteEntry removes the exact entry (key, id) — the row a RangeScan or
// ScanRaw reported under that id — so among rows sharing a key the one
// meant goes, not the first. Same padded access count as Delete.
func (t *Table) DeleteEntry(key int64, id uint32) (bool, error) {
	return t.delete(key, int64(id))
}

// delete removes the entry (key, seq), or the first entry with key when
// seq is -1, padded to deleteTarget of the height before the deletion.
func (t *Table) delete(key, seq int64) (bool, error) {
	hPre := t.height
	t.beginOp(deleteTarget(hPre))
	ok, err := t.deleteInner(key, seq)
	if err != nil {
		return false, err
	}
	if ok {
		t.rows--
	}
	return ok, t.padTo(deleteTarget(hPre))
}

func (t *Table) deleteInner(key, seq int64) (bool, error) {
	if t.height == 0 {
		return false, nil
	}
	path, err := t.descend(key, seq)
	if err != nil {
		return false, err
	}
	leaf := path[len(path)-1].nd
	i := lowerBound(leaf, key, seq)
	if i == leaf.n && seq < 0 {
		// First candidate lives in the next leaf: peek at it, then
		// re-descend with its exact composite key so the deletion path
		// (needed for rebalancing) is correct. An exact key needs no hop:
		// the descent already reached the one leaf that can hold it.
		if leaf.next == 0 {
			return false, nil
		}
		nxt, err := t.readNode(leaf.next - 1)
		if err != nil {
			return false, err
		}
		if nxt.n == 0 || nxt.keys[0] != key {
			return false, nil
		}
		seq = int64(nxt.ptrs[0])
		path, err = t.descend(key, seq)
		if err != nil {
			return false, err
		}
		leaf = path[len(path)-1].nd
		i = lowerBound(leaf, key, seq)
	}
	if i >= leaf.n || leaf.keys[i] != key || (seq >= 0 && int64(leaf.ptrs[i]) != seq) {
		return false, nil
	}
	rowID := leaf.ptrs[i]
	if err := t.clearRecord(rowID); err != nil {
		return false, err
	}
	t.freeRow(rowID)
	removeLeafEntry(leaf, i)
	t.dirty.reset()
	t.dirty.put(path[len(path)-1].id, leaf)

	if err := t.rebalance(path); err != nil {
		return false, err
	}
	return true, t.flushDirty()
}

func removeLeafEntry(nd *node, i int) {
	for j := i; j < nd.n-1; j++ {
		nd.keys[j] = nd.keys[j+1]
		nd.ptrs[j] = nd.ptrs[j+1]
		nd.seqs[j] = nd.seqs[j+1]
	}
	nd.n--
}

// removeInternalEntry drops separator i and child i+1.
func removeInternalEntry(nd *node, i int) {
	for j := i; j < nd.n-1; j++ {
		nd.keys[j] = nd.keys[j+1]
		nd.seqs[j] = nd.seqs[j+1]
	}
	for j := i + 1; j < nd.n; j++ {
		nd.ptrs[j] = nd.ptrs[j+1]
	}
	nd.n--
}

// rebalance fixes underflow from the leaf level upward. Nodes it modifies
// are added to the dirty set; nodes it empties are freed and removed.
func (t *Table) rebalance(path []pathEntry) error {
	for level := len(path) - 1; level > 0; level-- {
		nd := path[level].nd
		if nd.n >= minKeys {
			return nil
		}
		parent := path[level-1].nd
		idx := path[level].idxInParent

		// Prefer the left sibling; the leftmost child uses its right one.
		var sibID uint32
		var sepIdx int
		left := idx > 0
		if left {
			sibID = parent.ptrs[idx-1]
			sepIdx = idx - 1
		} else {
			sibID = parent.ptrs[idx+1]
			sepIdx = idx
		}
		sib, err := t.readNode(sibID)
		if err != nil {
			return err
		}

		if sib.n > minKeys {
			borrow(nd, sib, parent, sepIdx, left)
			t.dirty.put(sibID, sib)
			t.dirty.put(path[level].id, nd)
			t.dirty.put(path[level-1].id, parent)
			return nil
		}

		// Merge: absorb the right of the pair into the left.
		var lo, hi *node
		var loID, hiID uint32
		if left {
			lo, hi, loID, hiID = sib, nd, sibID, path[level].id
		} else {
			lo, hi, loID, hiID = nd, sib, path[level].id, sibID
		}
		mergeNodes(lo, hi, parent, sepIdx)
		removeInternalEntry(parent, sepIdx)
		t.dirty.put(loID, lo)
		t.dirty.del(hiID)
		t.freeNode(hiID)
		t.dirty.put(path[level-1].id, parent)
		// Continue upward: the parent may now underflow.
	}

	// Root adjustments.
	root := path[0].nd
	if !root.leaf && root.n == 0 {
		t.freeNode(path[0].id)
		t.dirty.del(path[0].id)
		t.root = root.ptrs[0]
		t.height--
	} else if root.leaf && root.n == 0 {
		t.freeNode(path[0].id)
		t.dirty.del(path[0].id)
		t.root = 0
		t.height = 0
	}
	return nil
}

// borrow moves one entry from sib into nd through the parent separator at
// sepIdx. left says whether sib is nd's left sibling.
func borrow(nd, sib, parent *node, sepIdx int, left bool) {
	if nd.leaf {
		if left {
			// Take sib's last entry as nd's first.
			insertLeafEntry(nd, 0, sib.keys[sib.n-1], sib.ptrs[sib.n-1])
			sib.n--
			parent.keys[sepIdx] = nd.keys[0]
			parent.seqs[sepIdx] = uint32(nd.seq(0))
		} else {
			// Take sib's first entry as nd's last.
			insertLeafEntry(nd, nd.n, sib.keys[0], sib.ptrs[0])
			removeLeafEntry(sib, 0)
			parent.keys[sepIdx] = sib.keys[0]
			parent.seqs[sepIdx] = uint32(sib.seq(0))
		}
		return
	}
	if left {
		// Rotate right through the parent.
		for i := nd.n; i > 0; i-- {
			nd.keys[i] = nd.keys[i-1]
			nd.seqs[i] = nd.seqs[i-1]
		}
		for i := nd.n + 1; i > 0; i-- {
			nd.ptrs[i] = nd.ptrs[i-1]
		}
		nd.keys[0] = parent.keys[sepIdx]
		nd.seqs[0] = parent.seqs[sepIdx]
		nd.ptrs[0] = sib.ptrs[sib.n]
		nd.n++
		parent.keys[sepIdx] = sib.keys[sib.n-1]
		parent.seqs[sepIdx] = sib.seqs[sib.n-1]
		sib.n--
		return
	}
	// Rotate left through the parent.
	nd.keys[nd.n] = parent.keys[sepIdx]
	nd.seqs[nd.n] = parent.seqs[sepIdx]
	nd.ptrs[nd.n+1] = sib.ptrs[0]
	nd.n++
	parent.keys[sepIdx] = sib.keys[0]
	parent.seqs[sepIdx] = sib.seqs[0]
	for i := 0; i < sib.n-1; i++ {
		sib.keys[i] = sib.keys[i+1]
		sib.seqs[i] = sib.seqs[i+1]
	}
	for i := 0; i < sib.n; i++ {
		sib.ptrs[i] = sib.ptrs[i+1]
	}
	sib.n--
}

// mergeNodes folds hi into lo, pulling the parent separator down for
// internal nodes and splicing the leaf chain for leaves.
func mergeNodes(lo, hi, parent *node, sepIdx int) {
	if lo.leaf {
		for i := 0; i < hi.n; i++ {
			lo.keys[lo.n+i] = hi.keys[i]
			lo.ptrs[lo.n+i] = hi.ptrs[i]
			lo.seqs[lo.n+i] = hi.seqs[i]
		}
		lo.n += hi.n
		lo.next = hi.next
		return
	}
	lo.keys[lo.n] = parent.keys[sepIdx]
	lo.seqs[lo.n] = parent.seqs[sepIdx]
	for i := 0; i < hi.n; i++ {
		lo.keys[lo.n+1+i] = hi.keys[i]
		lo.seqs[lo.n+1+i] = hi.seqs[i]
	}
	for i := 0; i <= hi.n; i++ {
		lo.ptrs[lo.n+1+i] = hi.ptrs[i]
	}
	lo.n += hi.n + 1
}

// updateTarget is the fixed access count of an in-place update at height
// h: a lookup plus one record-block write.
func updateTarget(h int) int { return lookupTarget(h) + 1 }

// UpdateByKey rewrites the first row whose key equals key. The updater
// must not change the key column (use Delete+Insert for key changes). The
// access count is fixed for the tree's height.
func (t *Table) UpdateByKey(key int64, upd table.Updater) (bool, error) {
	t.beginOp(updateTarget(t.height))
	ok, err := t.updateInner(key, upd)
	if err != nil {
		return false, err
	}
	return ok, t.padTo(updateTarget(t.height))
}

func (t *Table) updateInner(key int64, upd table.Updater) (bool, error) {
	rowID, ok, err := t.lookupEntry(key)
	if err != nil || !ok {
		return false, err
	}
	row, err := t.readRecord(rowID)
	if err != nil {
		return false, err
	}
	newRow := upd(row)
	if err := t.schema.ValidateRow(newRow); err != nil {
		return false, err
	}
	if newRow[t.keyCol].AsInt() != key {
		return false, fmt.Errorf("indexed: UpdateByKey must not change the key column")
	}
	return true, t.writeRecord(rowID, newRow)
}

// RangeScan visits every row with lo <= key <= hi in key order, with the
// rowID DeleteEntry takes. The row is a scratch row, valid only during
// the callback: fn must Clone any row it retains. Its access count is
// height + (leaves touched) + (records read); the paper counts this
// scanned-segment size as part of the leaked intermediate sizes (§4.1,
// "Selection over Indexes").
func (t *Table) RangeScan(lo, hi int64, fn func(id uint32, r table.Row) error) (int, error) {
	if t.height == 0 || lo > hi {
		return 0, nil
	}
	t.beginOp(0)
	path, err := t.descend(lo, -1)
	if err != nil {
		return 0, err
	}
	leaf := path[len(path)-1].nd
	// One arena node absorbs every leaf-chain hop so long scans do not
	// grow the arena.
	hop := t.newNode()
	i := lowerBound(leaf, lo, -1)
	count := 0
	for {
		for ; i < leaf.n; i++ {
			if leaf.keys[i] > hi {
				return count, nil
			}
			if err := t.readRecordInto(t.scanRow, leaf.ptrs[i]); err != nil {
				return count, err
			}
			if err := fn(leaf.ptrs[i], t.scanRow); err != nil {
				return count, err
			}
			count++
		}
		if leaf.next == 0 {
			return count, nil
		}
		if err := t.readNodeInto(hop, leaf.next-1); err != nil {
			return count, err
		}
		leaf = hop
		i = 0
	}
}

// ScanRaw reads the underlying ORAM buckets linearly — a fixed pattern
// cheaper than N full ORAM accesses — and yields every stored row in
// arbitrary order, each with its rowID (block*R + slot). Like
// RangeScan's, the row is valid only during the callback. This is the
// paper's "scan the index as a flat table" fallback; tree nodes, dummy
// slots, and ORAM slack all look alike to the adversary.
func (t *Table) ScanRaw(fn func(id uint32, r table.Row) error) error {
	return t.o.RawScan(func(id int, data []byte) error {
		if id >= t.dataBlocks || data[0] != kindRecord {
			return nil
		}
		for j := 0; j < t.rpb; j++ {
			used, err := t.schema.DecodeRecordInto(t.scanRow, data[1:], j)
			if err != nil {
				return err
			}
			if !used {
				continue
			}
			if err := fn(uint32(id*t.rpb+j), t.scanRow); err != nil {
				return err
			}
		}
		return nil
	})
}

// Rows collects all rows in key order (test/result helper, not padded).
func (t *Table) Rows() ([]table.Row, error) {
	var out []table.Row
	_, err := t.RangeScan(minInt64, maxInt64, func(_ uint32, r table.Row) error {
		out = append(out, r.Clone())
		return nil
	})
	return out, err
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)
