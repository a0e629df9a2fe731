package main

import (
	"oblidb/internal/table"
)

// The storage rung calls core.Table.Flat, storage.Flat.Scan, NumBlocks,
// NumRows, Schema and Store, and enclave.Store.SizeBytes.

// storage times a full scan of the workload's flat table per sealed
// block, and reports what the table occupies in untrusted memory per
// byte of user data.
func (p *probes) storage() error {
	flat := p.tbl.Flat()
	if flat == nil {
		p.set("storage.scan_us_per_block", 0, "us")
		p.set("storage.untrusted_bytes_per_user_byte", 0, "ratio")
		return nil
	}
	us, err := timeOp(p.plan.perRung, 3, func() error {
		return flat.Scan(func(int, table.Row, bool) error { return nil })
	})
	if err != nil {
		return err
	}
	p.set("storage.scan_us_per_block", us/float64(flat.NumBlocks()), "us")
	user := float64(flat.NumRows() * flat.Schema().RowSize())
	p.set("storage.untrusted_bytes_per_user_byte", float64(flat.Store().SizeBytes())/user, "ratio")
	return nil
}
