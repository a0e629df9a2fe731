// Package obtree_test checks the oblivious B+ tree of §3.2 at the paper's
// one-record-per-block geometry: internal/indexed with RowsPerBlock 1, the
// configuration Fig 9 and the bulk-load ablation measure. The packed
// geometries are tested in internal/indexed itself.
package obtree_test
