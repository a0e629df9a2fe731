package indexed

import (
	"errors"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/enclave"
	"oblidb/internal/table"
)

// Integrity tests at the indexed layer, mirroring the packed-flat
// adversary suite: every §2.3 attack class against the ORAM bucket store
// must surface as crypt.ErrAuth on a subsequent table operation.

func attackTable(t *testing.T, opts Options) *Table {
	t.Helper()
	e := enclave.MustNew(enclave.Config{})
	tbl, err := New(e, "t", tblSchema(), 0, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	for i := int64(0); i < 48; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanAll drives a raw scan, the one access pattern guaranteed to touch
// every untrusted slot.
func scanAll(tbl *Table) error {
	return tbl.ScanRaw(func(uint32, table.Row) error { return nil })
}

func TestAttackBucketBitFlip(t *testing.T) {
	tbl := attackTable(t, Options{RowsPerBlock: 4})
	st := tbl.Store()
	raw := st.AdversaryRawBlock(st.Len() / 2)
	raw[3] ^= 0x40
	st.AdversarySetRawBlock(st.Len()/2, raw)
	if err := scanAll(tbl); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("tampered bucket slot: err=%v, want ErrAuth", err)
	}
}

func TestAttackBucketSwap(t *testing.T) {
	// Swapping two sealed slots is caught by position binding even though
	// both ciphertexts are individually authentic.
	tbl := attackTable(t, Options{RowsPerBlock: 4})
	st := tbl.Store()
	st.AdversarySwapBlocks(0, st.Len()-1)
	if err := scanAll(tbl); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("swapped bucket slots: err=%v, want ErrAuth", err)
	}
}

func TestAttackBucketRollback(t *testing.T) {
	// The adversary snapshots the whole untrusted store, waits for an
	// update, and replays the snapshot. Revision binding in the enclave's
	// trusted metadata catches the stale ciphertexts.
	tbl := attackTable(t, Options{RowsPerBlock: 4})
	st := tbl.Store()
	snapshot := make([][]byte, st.Len())
	for i := range snapshot {
		snapshot[i] = st.AdversaryRawBlock(i)
	}
	// Several updates, so the ORAM's scheduled evictions write fresh
	// ciphertexts back to the store (a lone update can park entirely in
	// the enclave stash, leaving nothing for the snapshot to roll back).
	for k := int64(5); k < 10; k++ {
		if ok, err := tbl.UpdateByKey(k, func(r table.Row) table.Row {
			r[1] = table.Str("v2")
			return r
		}); err != nil || !ok {
			t.Fatalf("update %d: ok=%v err=%v", k, ok, err)
		}
	}
	for i, raw := range snapshot {
		st.AdversarySetRawBlock(i, raw)
	}
	if err := scanAll(tbl); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("whole-store rollback: err=%v, want ErrAuth", err)
	}
}

func TestAttackRollbackAfterDelete(t *testing.T) {
	// Replaying pre-deletion ciphertexts must not resurrect the row.
	tbl := attackTable(t, Options{RowsPerBlock: 4})
	st := tbl.Store()
	snapshot := make([][]byte, st.Len())
	for i := range snapshot {
		snapshot[i] = st.AdversaryRawBlock(i)
	}
	if ok, err := tbl.Delete(5); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	for i, raw := range snapshot {
		st.AdversarySetRawBlock(i, raw)
	}
	if err := scanAll(tbl); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("post-delete rollback: err=%v, want ErrAuth", err)
	}
}

func TestAttackStashStateNotInStore(t *testing.T) {
	// The stash and bucket metadata are trusted state: zeroing every
	// untrusted slot still yields ErrAuth (never silent wrong answers).
	tbl := attackTable(t, Options{RowsPerBlock: 4})
	st := tbl.Store()
	zero := make([]byte, len(st.AdversaryRawBlock(0)))
	for i := 0; i < st.Len(); i++ {
		st.AdversarySetRawBlock(i, zero)
	}
	if err := scanAll(tbl); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("zeroed store scan: err=%v, want ErrAuth", err)
	}
	if _, _, err := tbl.Lookup(1); !errors.Is(err, crypt.ErrAuth) {
		t.Fatalf("zeroed store lookup: err=%v, want ErrAuth", err)
	}
}
