package oblidb

import (
	"context"
	"fmt"
	"testing"
)

func txCount(t *testing.T, db *DB, q string, args ...any) int64 {
	t.Helper()
	var n int64
	if err := db.QueryRow(context.Background(), q, args...).Scan(&n); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return n
}

func TestTxCommitAppliesAtomically(t *testing.T) {
	db := apiDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.ExecContext(ctx, `INSERT INTO users VALUES (?, ?, ?)`, 4, "dave", 52)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("buffered write reported %d affected, want 0", got)
	}
	if _, err := tx.ExecContext(ctx, `DELETE FROM users WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// Reads on the tx (and on the DB) see the pre-transaction snapshot.
	rows, err := tx.Query(ctx, `SELECT * FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for rows.Next() {
		seen++
	}
	if seen != 3 {
		t.Fatalf("tx read saw %d rows, want pre-tx 3", seen)
	}
	res, err = tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("commit total = %d, want 2", got)
	}
	if n := txCount(t, db, `SELECT COUNT(*) FROM users`); n != 3 {
		t.Fatalf("post-commit count = %d, want 3", n)
	}
	if n := txCount(t, db, `SELECT COUNT(*) FROM users WHERE id = 4`); n != 1 {
		t.Fatal("committed insert missing")
	}
	if _, err := tx.Commit(ctx); err == nil {
		t.Fatal("double commit succeeded")
	}
}

func TestTxRollbackDiscards(t *testing.T) {
	db := apiDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, `DELETE FROM users WHERE age > 0`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := txCount(t, db, `SELECT COUNT(*) FROM users`); n != 3 {
		t.Fatalf("post-rollback count = %d, want 3", n)
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("double rollback succeeded")
	}
}

func TestTxRejectsDDLAndControl(t *testing.T) {
	db := apiDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.ExecContext(ctx, `CREATE TABLE nope (a INTEGER)`); err == nil {
		t.Fatal("DDL inside tx accepted")
	}
	if _, err := tx.ExecContext(ctx, `BEGIN`); err == nil {
		t.Fatal("nested BEGIN statement accepted")
	}
	if _, err := tx.ExecContext(ctx, `INSERT INTO users VALUES (?, ?, ?)`, 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestTxLiteralsKeepShapeCache: literal statements inside a Tx are
// one-shots, so a long literal transaction cannot fill the shape cache
// and evict a prepared shape.
func TestTxLiteralsKeepShapeCache(t *testing.T) {
	db := apiDB(t)
	ctx := context.Background()
	const shape = `SELECT name FROM users WHERE id = ?`
	if _, err := db.Prepare(shape); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		q := fmt.Sprintf(`INSERT INTO users VALUES (%d, 'u%d', %d)`, 100+i, i, i)
		if _, err := tx.ExecContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Entries != before.Entries {
		t.Fatalf("shape cache went from %d to %d entries", before.Entries, after.Entries)
	}
	if _, err := db.Prepare(shape); err != nil {
		t.Fatal(err)
	}
	if hits := db.CacheStats().Hits; hits != after.Hits+1 {
		t.Fatalf("re-preparing the shape missed the cache (hits %d -> %d)", after.Hits, hits)
	}
}
