package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// JoinAlgorithm names the oblivious join variants of §4.3.
type JoinAlgorithm int

const (
	// JoinHash is the oblivious block nested hash join: O(|T1|/S · |T2|),
	// using whatever oblivious memory is available for the build table.
	JoinHash JoinAlgorithm = iota
	// JoinOpaque is the Opaque sort-merge join: in-enclave sorts of
	// oblivious-memory-sized chunks merged by a bitonic network,
	// O((N+M) log²((N+M)/S)).
	JoinOpaque
	// JoinZeroOM is the paper's 0-OM variant: a pure bitonic sort needing
	// no oblivious memory, O((N+M) log²(N+M)).
	JoinZeroOM
)

// String names the algorithm as the paper does.
func (a JoinAlgorithm) String() string {
	switch a {
	case JoinHash:
		return "Hash"
	case JoinOpaque:
		return "Opaque"
	case JoinZeroOM:
		return "0-OM"
	}
	return fmt.Sprintf("JoinAlgorithm(%d)", int(a))
}

// JoinOptions configures a join.
type JoinOptions struct {
	// OutSchema is the schema of joined rows (t1's columns then t2's). If
	// nil it is built by concatenation.
	OutSchema *table.Schema
}

// JoinedSchema concatenates two schemas, prefixing duplicate column names.
func JoinedSchema(s1, s2 *table.Schema) (*table.Schema, error) {
	cols := make([]table.Column, 0, s1.NumColumns()+s2.NumColumns())
	cols = append(cols, s1.Columns()...)
	for _, c := range s2.Columns() {
		if s1.ColIndex(c.Name) >= 0 {
			c.Name = "r_" + c.Name
		}
		cols = append(cols, c)
	}
	return table.NewSchema(cols...)
}

// Join runs one oblivious join of t1 and t2 on t1.col1 = t2.col2,
// materializing joined rows into a fresh flat table. t1 is the primary
// (build) side; the sort-merge variants implement foreign-key joins where
// col1 is unique in t1, matching §4.3's scope.
func Join(e *enclave.Enclave, t1, t2 Input, col1, col2 int, alg JoinAlgorithm, opts JoinOptions, outName string) (*storage.Flat, error) {
	if col1 < 0 || col1 >= t1.Schema().NumColumns() || col2 < 0 || col2 >= t2.Schema().NumColumns() {
		return nil, fmt.Errorf("exec: join columns out of range")
	}
	outSchema := opts.OutSchema
	if outSchema == nil {
		var err error
		outSchema, err = JoinedSchema(t1.Schema(), t2.Schema())
		if err != nil {
			return nil, err
		}
	}
	switch alg {
	case JoinHash:
		return hashJoin(e, t1, t2, col1, col2, outSchema, outName)
	case JoinOpaque, JoinZeroOM:
		return sortMergeJoin(e, t1, t2, col1, col2, alg, outSchema, outName)
	}
	return nil, fmt.Errorf("exec: unknown join algorithm %d", alg)
}

// joinKey maps a value to a 64-bit comparison key. Integers and booleans
// map injectively; floats order-preservingly; strings by FNV-64a (the
// merge phase groups by this key, and a 64-bit collision at the paper's
// table sizes is vanishingly unlikely).
func joinKey(v table.Value) int64 {
	switch v.Kind {
	case table.KindInt, table.KindBool:
		return v.AsInt()
	case table.KindFloat:
		bits := math.Float64bits(v.AsFloat())
		if bits>>63 != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return int64(bits)
	case table.KindString:
		// FNV-64a, as hash/fnv computes it, without its allocations.
		s := v.AsString()
		h := uint64(fnvOffset64)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
		return int64(h)
	}
	return 0
}

// FNV-64a's offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashJoin is the §4.3 oblivious hash join: build an in-enclave hash table
// from as many rows of t1 as oblivious memory holds, then stream t2,
// writing one output slot — joined or dummy — per comparison, so each
// probe's access pattern is data-independent. The output structure has
// ceil(rows(T1)/S)·rows(T2) slots; reads and the sequential output fill
// both amortize to one untrusted access per packed block.
func hashJoin(e *enclave.Enclave, t1, t2 Input, col1, col2 int, outSchema *table.Schema, outName string) (*storage.Flat, error) {
	recSize := t1.Schema().RecordSize()
	t1Rows := RowSlots(t1)
	chunkRows := e.Available() / recSize
	if chunkRows < 1 {
		chunkRows = 1
	}
	if chunkRows > t1Rows {
		chunkRows = t1Rows
	}
	reserve := chunkRows * recSize
	if err := e.Reserve(reserve); err != nil {
		return nil, err
	}
	defer e.Release(reserve)

	numChunks := (t1Rows + chunkRows - 1) / chunkRows
	out, err := storage.NewFlatGeom(e, outName, outSchema, max(1, numChunks*RowSlots(t2)), outGeom(t2))
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	// Each chunk's probe pass may read the same underlying table as t1
	// (a self-join), clobbering the scratch the reader's cached rows
	// alias, so the build reader refetches at every chunk boundary.
	h := newHashTable(t1.Schema(), t2.Schema(), col1, col2, chunkRows)
	matches, err := hashJoinChunks(h, NewRowReader(t1), t1Rows, true, t2, w)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(matches)
	return out, nil
}

// hashTable is one chunk of the hash join's build side, held in
// oblivious memory: used build rows are encoded into an arena of exactly
// chunkRows records — the bytes the operator reserves — and indexed by
// join key (a later row with an equal key replaces an earlier one).
type hashTable struct {
	schema     *table.Schema
	col1, col2 int
	arena      []byte
	slots      map[int64]int
	hit        table.Row // decode scratch for a probe hit
	joined     table.Row // output scratch: the build row, then the probe row
}

func newHashTable(s1, s2 *table.Schema, col1, col2, chunkRows int) *hashTable {
	return &hashTable{
		schema: s1, col1: col1, col2: col2,
		arena:  make([]byte, chunkRows*s1.RecordSize()),
		slots:  make(map[int64]int, chunkRows),
		hit:    make(table.Row, s1.NumColumns()),
		joined: make(table.Row, s1.NumColumns()+s2.NumColumns()),
	}
}

// add encodes a used build row into chunk slot i.
func (h *hashTable) add(i int, row table.Row) error {
	if err := h.schema.EncodeRecordAt(h.arena, i, row); err != nil {
		return err
	}
	h.slots[joinKey(row[h.col1])] = i
	return nil
}

// probe returns the joined row for a used probe-side row, or nil when no
// build row matches. The joined row is scratch, valid until the next
// probe; the output writers encode it on Append.
func (h *hashTable) probe(row table.Row) (table.Row, error) {
	i, ok := h.slots[joinKey(row[h.col2])]
	if !ok {
		return nil, nil
	}
	if _, err := h.schema.DecodeRecordInto(h.hit, h.arena, i); err != nil {
		return nil, err
	}
	if !h.hit[h.col1].Equal(row[h.col2]) {
		return nil, nil
	}
	n := copy(h.joined, h.hit)
	copy(h.joined[n:], row)
	return h.joined, nil
}

// rowAppender is a sequential output fill: storage.BlockWriter or a
// worker's storage.RangeWriter.
type rowAppender interface {
	Append(r table.Row, used bool) error
}

// hashJoinChunks is the build/probe loop of the hash join, shared by the
// serial and partition-parallel operators: for each chunk of the build
// side's buildRows slots, fill h from build, then stream probe through
// it, appending one output slot — joined or dummy — per probe slot.
// refetch drops build's block cache at every (public) chunk boundary. It
// returns the number of joined rows.
func hashJoinChunks(h *hashTable, build *RowReader, buildRows int, refetch bool, probe Input, w rowAppender) (int, error) {
	chunkRows := len(h.arena) / h.schema.RecordSize()
	probeBuf := probe.Schema().NewBlockBuf(probe.RowsPerBlock())
	matches := 0
	for lo := 0; lo < buildRows; lo += chunkRows {
		clear(h.slots)
		if refetch {
			build.Invalidate()
		}
		for i := lo; i < min(lo+chunkRows, buildRows); i++ {
			row, used, err := build.Read(i)
			if err != nil {
				return 0, err
			}
			if used {
				if err := h.add(i-lo, row); err != nil {
					return 0, err
				}
			}
		}
		err := ForEachRowInto(probe, probeBuf, func(_ int, row table.Row, used bool) error {
			if used {
				joined, err := h.probe(row)
				if err != nil {
					return err
				}
				if joined != nil {
					matches++
					return w.Append(joined, true)
				}
			}
			// One output slot per comparison: the joined row or a dummy.
			return w.Append(nil, false)
		})
		if err != nil {
			return 0, err
		}
	}
	return matches, nil
}

// Tags ordering the combined array: for equal keys the primary row must
// precede its foreign matches; dummies sort last.
const (
	tagPrimary = 1
	tagForeign = 2
	tagDummy   = 3
)

// sortMergeJoin implements both the Opaque join and the 0-OM join (§4.3):
// copy both tables into one array tagged with their join keys, sort it
// obliviously by (key, tag), then merge in one linear scan that emits one
// output row — real or dummy — per array position.
func sortMergeJoin(e *enclave.Enclave, t1, t2 Input, col1, col2 int, alg JoinAlgorithm, outSchema *table.Schema, outName string) (*storage.Flat, error) {
	rec1, rec2 := t1.Schema().RecordSize(), t2.Schema().RecordSize()
	payload := max(rec1, rec2)
	blockSize := 1 + 8 + payload
	rows1, rows2 := RowSlots(t1), RowSlots(t2)
	n := NextPow2(rows1 + rows2)

	st, err := e.NewStore(outName+".sortmerge", n, blockSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	fill := func(pos int, tag byte, key int64, schema *table.Schema, row table.Row, used bool) error {
		for i := range buf {
			buf[i] = 0
		}
		if !used {
			tag, key = tagDummy, math.MaxInt64
		}
		buf[0] = tag
		binary.LittleEndian.PutUint64(buf[1:9], uint64(key))
		if used {
			if err := schema.EncodeRecord(buf[9:], row); err != nil {
				return err
			}
		}
		return st.Write(pos, buf)
	}
	err = ForEachRow(t1, func(i int, row table.Row, used bool) error {
		var key int64
		if used {
			key = joinKey(row[col1])
		}
		return fill(i, tagPrimary, key, t1.Schema(), row, used)
	})
	if err != nil {
		return nil, err
	}
	err = ForEachRow(t2, func(j int, row table.Row, used bool) error {
		var key int64
		if used {
			key = joinKey(row[col2])
		}
		return fill(rows1+j, tagForeign, key, t2.Schema(), row, used)
	})
	if err != nil {
		return nil, err
	}
	for p := rows1 + rows2; p < n; p++ {
		if err := fill(p, tagDummy, 0, nil, nil, false); err != nil {
			return nil, err
		}
	}

	// Sort by (key, tag). The Opaque variant accelerates with in-enclave
	// sorts of chunks sized to the oblivious memory; 0-OM runs the pure
	// network.
	chunkRows := 1
	reserve := 0
	if alg == JoinOpaque {
		chunkRows = e.Available() / blockSize
		if chunkRows < 1 {
			chunkRows = 1
		}
		chunkRows = 1 << func() int { // floor to power of two
			b := 0
			for 1<<(b+1) <= chunkRows {
				b++
			}
			return b
		}()
		if chunkRows > n {
			chunkRows = n
		}
		reserve = chunkRows * blockSize
		if err := e.Reserve(reserve); err != nil {
			return nil, err
		}
		defer e.Release(reserve)
	}
	less := func(a, b []byte) bool {
		ka := int64(binary.LittleEndian.Uint64(a[1:9]))
		kb := int64(binary.LittleEndian.Uint64(b[1:9]))
		if ka != kb {
			return ka < kb
		}
		return a[0] < b[0]
	}
	if err := ObliviousSort(st, n, chunkRows, less); err != nil {
		return nil, err
	}

	// Merge: one linear scan; the last-seen primary row rides in the
	// enclave; every position emits exactly one output slot, the
	// sequential fill sealing one packed block at a time.
	out, err := storage.NewFlatGeom(e, outName, outSchema, n, outGeom(t1))
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	var heldKey int64
	var heldRow table.Row
	held := false
	matches := 0
	rbuf := make([]byte, blockSize)
	for p := 0; p < n; p++ {
		data, err := st.ReadInto(p, rbuf)
		if err != nil {
			return nil, err
		}
		tag := data[0]
		key := int64(binary.LittleEndian.Uint64(data[1:9]))
		var joined table.Row
		switch tag {
		case tagPrimary:
			row, used, err := t1.Schema().DecodeRecord(data[9:])
			if err != nil {
				return nil, err
			}
			if used {
				heldKey, heldRow, held = key, row, true
			}
		case tagForeign:
			if held && key == heldKey {
				row, used, err := t2.Schema().DecodeRecord(data[9:])
				if err != nil {
					return nil, err
				}
				if used && heldRow[col1].Equal(row[col2]) {
					joined = append(append(make(table.Row, 0, len(heldRow)+len(row)), heldRow...), row...)
				}
			}
		}
		if joined != nil {
			matches++
			err = w.Append(joined, true)
		} else {
			err = w.Append(nil, false)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(matches)
	return out, nil
}
