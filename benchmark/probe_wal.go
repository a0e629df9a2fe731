package main

import (
	"os"
	"path/filepath"

	"oblidb/internal/crypt"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

// The wal rung calls wal.Open, Log.Append, Log.Commit and Log.Close. The
// counts per write statement come from core.DB.WALStats in the exec rung,
// and wal.recover_s from the workload's own recovery check.

// wal times one journaled row plus its commit on a scratch journal beside
// the workload's, with the same flush policy: fsync on every commit.
// Workloads without a journal report 0.
func (p *probes) wal() error {
	if p.e.journal == nil {
		p.set("wal.commit_us", 0, "us")
		return nil
	}
	dir, err := os.MkdirTemp(filepath.Dir(p.e.journal.dir), "probe-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "probe.wal"), crypt.NewRandomKey(), wal.Options{Sync: true})
	if err != nil {
		return err
	}
	defer log.Close()
	schema := p.tbl.Schema()
	row := table.Row{table.Int(1), table.Str(payload(1, 0))}
	us, err := timeOp(p.plan.perRung, 50, func() error {
		if err := log.Append(wal.OpInsert, p.e.table, schema, row); err != nil {
			return err
		}
		return log.Commit()
	})
	if err != nil {
		return err
	}
	p.set("wal.commit_us", us, "us")
	return nil
}
