package driver

import (
	"database/sql"
	"fmt"
	"testing"
)

// TestTransactionLiteralsKeepShapeCache: literal statements on a mem://
// Tx are one-shots, so a long literal transaction cannot fill the shared
// executor's shape cache and evict a prepared shape.
func TestTransactionLiteralsKeepShapeCache(t *testing.T) {
	conn, err := (&Driver{}).OpenConnector("mem://")
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(conn)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE users (id INTEGER, name VARCHAR(16))`); err != nil {
		t.Fatal(err)
	}
	const shape = `SELECT name FROM users WHERE id = ?`
	st, err := db.Prepare(shape)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	x := conn.(*memConnector).exec
	before := x.CacheStats()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO users VALUES (%d, 'u%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := x.CacheStats()
	if after.Entries != before.Entries {
		t.Fatalf("shape cache went from %d to %d entries", before.Entries, after.Entries)
	}
	if _, err := x.Prepare(shape); err != nil {
		t.Fatal(err)
	}
	if hits := x.CacheStats().Hits; hits != after.Hits+1 {
		t.Fatalf("re-preparing the shape missed the cache (hits %d -> %d)", after.Hits, hits)
	}
}
