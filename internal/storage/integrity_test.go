package storage

import (
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
)

// Integrity tests at the storage layer: every §2.3 attack class against a
// flat table must surface as an error on the next access.

func attackTable(t *testing.T) *Flat {
	t.Helper()
	e := enclave.MustNew(enclave.Config{})
	f, err := NewFlat(e, "t", kvSchema(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := f.InsertFast(row(i, "secret"), nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestAttackBitFlip(t *testing.T) {
	f := attackTable(t)
	raw := f.Store().AdversaryRawBlock(3)
	raw[5] ^= 0x01
	f.Store().AdversarySetRawBlock(3, raw)
	if _, _, err := f.ReadRow(3); err == nil {
		t.Fatal("bit flip undetected")
	}
}

func TestAttackRowSwap(t *testing.T) {
	f := attackTable(t)
	f.Store().AdversarySwapBlocks(0, 5)
	if _, _, err := f.ReadRow(0); err == nil {
		t.Fatal("row shuffle undetected")
	}
	if _, _, err := f.ReadRow(5); err == nil {
		t.Fatal("row shuffle undetected at the other slot")
	}
}

func TestAttackRollbackAfterDelete(t *testing.T) {
	// The adversary snapshots a row, waits for its deletion, and replays
	// the snapshot — resurrecting deleted data. Caught by revision
	// binding.
	f := attackTable(t)
	old := f.Store().AdversaryRawBlock(2)
	if _, err := f.Delete(func(r table.Row) bool { return r[0].AsInt() == 2 }); err != nil {
		t.Fatal(err)
	}
	f.Store().AdversarySetRawBlock(2, old)
	if _, _, err := f.ReadRow(2); err == nil {
		t.Fatal("deleted row resurrected undetected")
	}
}

func TestAttackWholeTableRollback(t *testing.T) {
	// Rolling back every block to a consistent earlier state still fails:
	// the enclave's revision map is trusted metadata the OS cannot reset.
	f := attackTable(t)
	snapshot := make([][]byte, f.Capacity())
	for i := range snapshot {
		snapshot[i] = f.Store().AdversaryRawBlock(i)
	}
	if _, err := f.Update(table.All, func(r table.Row) table.Row {
		r[1] = table.Str("v2")
		return r
	}); err != nil {
		t.Fatal(err)
	}
	for i, raw := range snapshot {
		f.Store().AdversarySetRawBlock(i, raw)
	}
	if err := f.Scan(func(int, table.Row, bool) error { return nil }); err == nil {
		t.Fatal("whole-table rollback undetected")
	}
}

func TestAttackBlockFromOtherTable(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	a, _ := NewFlat(e, "a", kvSchema(t), 4)
	b, _ := NewFlat(e, "b", kvSchema(t), 4)
	_ = a.InsertFast(row(1, "from-a"), nil)
	_ = b.InsertFast(row(2, "from-b"), nil)
	b.Store().AdversarySetRawBlock(0, a.Store().AdversaryRawBlock(0))
	if _, _, err := b.ReadRow(0); err == nil {
		t.Fatal("cross-table block transplant undetected")
	}
}

func TestDummyWritesChangeCiphertext(t *testing.T) {
	// An update that touches nothing must still re-randomize every block,
	// or the adversary could tell dummy from real writes.
	f := attackTable(t)
	before := make([][]byte, f.Capacity())
	for i := range before {
		before[i] = f.Store().AdversaryRawBlock(i)
	}
	if _, err := f.Update(table.None, func(r table.Row) table.Row { return r }); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		after := f.Store().AdversaryRawBlock(i)
		same := len(after) == len(before[i])
		if same {
			diff := false
			for j := range after {
				if after[j] != before[i][j] {
					diff = true
					break
				}
			}
			same = !diff
		}
		if same {
			t.Fatalf("block %d ciphertext unchanged by dummy write", i)
		}
	}
}
