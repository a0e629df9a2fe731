package storage

import (
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func partSchema() *table.Schema {
	return table.MustSchema(table.Column{Name: "k", Kind: table.KindInt})
}

// readPart reads one record of a partition block (these tests use R = 1
// tables, where block and row indices coincide).
func readPart(v *PartitionView, i int) (table.Row, bool, error) {
	buf := v.Schema().NewBlockBuf(v.RowsPerBlock())
	if err := v.ReadBlockInto(i, buf); err != nil {
		return nil, false, err
	}
	row, used := buf.Row(0)
	return row, used, nil
}

func TestPartitionedCoversAllBlocksOnce(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	f, err := NewFlat(e, "t", partSchema(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.InsertFast(table.Row{table.Int(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	workers, err := e.Split(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPartitioned(f, workers)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", pt.NumPartitions())
	}
	if pt.PartLen() != 4 { // ceil(10/3)
		t.Fatalf("PartLen = %d, want 4", pt.PartLen())
	}
	seen := map[int64]int{}
	for p := 0; p < pt.NumPartitions(); p++ {
		v := pt.Part(p)
		if v.Blocks() != pt.PartLen() {
			t.Fatalf("partition %d has %d blocks, want padded %d", p, v.Blocks(), pt.PartLen())
		}
		for i := 0; i < v.Blocks(); i++ {
			row, used, err := readPart(v, i)
			if err != nil {
				t.Fatal(err)
			}
			if used {
				seen[row[0].AsInt()]++
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("partitions covered %d distinct rows, want 10", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("row %d seen %d times", k, n)
		}
	}
}

func TestPartitionReadsLandOnWorkerTracers(t *testing.T) {
	parent := trace.New()
	wts := []*trace.Tracer{trace.New(), trace.New()}
	e, err := enclave.New(enclave.Config{Tracer: parent, Key: make([]byte, 32)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(e, "t", partSchema(), 8)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := e.Split(2, wts)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPartitioned(f, workers)
	if err != nil {
		t.Fatal(err)
	}
	parent.Reset()
	for p := 0; p < 2; p++ {
		v := pt.Part(p)
		for i := 0; i < v.Blocks(); i++ {
			if _, _, err := readPart(v, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if parent.Len() != 0 {
		t.Fatalf("partition reads leaked onto the parent tracer: %d events", parent.Len())
	}
	for p, w := range wts {
		if w.Len() != 4 {
			t.Fatalf("worker %d recorded %d events, want 4", p, w.Len())
		}
	}
}

func TestPartitionPaddingReadsNothing(t *testing.T) {
	wt := trace.New()
	e, err := enclave.New(enclave.Config{Key: make([]byte, 32)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(e, "t", partSchema(), 5)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := e.Split(2, []*trace.Tracer{trace.New(), wt})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPartitioned(f, workers)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1 covers blocks [3,6) of a 5-block table: index 2 is
	// padding and must decode unused without an untrusted access.
	v := pt.Part(1)
	wt.Reset()
	row, used, err := readPart(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if used || row != nil {
		t.Fatal("padding block read as used")
	}
	if wt.Len() != 0 {
		t.Fatalf("padding read touched untrusted memory: %d events", wt.Len())
	}
}
