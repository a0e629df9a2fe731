package main

import (
	"fmt"

	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/wire"
)

// The exec rung calls sql.Executor.PrepareOneShot and Prepare,
// sql.Prepared.Exec, core.DB.IOStats and core.DB.WALStats.

// ladder continues the serial stream in-process on the same engine: each
// statement is prepared the way the session would (one-shot for literal
// text, once per text for placeholders) and executed with Prepared.Exec,
// under sql.prepare and sql.exec spans. With no epoch around them there
// are no dummies, so the engine's I/O and journal counters over the pass
// are the statements' own, and exact.
func (p *probes) ladder(s stream, firstStmt int) (failed int, err error) {
	ex := sql.New(p.e.db)
	prepared := map[string]*sql.Prepared{}
	var prepUs, execUs []float64
	writes := 0
	io0, wal0 := p.e.db.IOStats(), p.e.db.WALStats()
	for i := 0; i < p.plan.stmts; i++ {
		st := s.next()
		prep := prepared[st.sql]
		var args []table.Value
		if prep == nil {
			id := p.tr.begin("sql.prepare", firstStmt+i, -1)
			t0 := now()
			if st.args == nil {
				prep, err = ex.PrepareOneShot(st.sql)
			} else if prep, err = ex.Prepare(st.sql); err == nil {
				prepared[st.sql] = prep
			}
			prepUs = append(prepUs, float64(now()-t0)/1e3)
			p.tr.end(id)
			if err != nil {
				return failed, fmt.Errorf("%s: %w", st.kind, err)
			}
		} else {
			prepUs = append(prepUs, 0) // executed by handle: no per-statement prepare
		}
		if st.args != nil {
			args = request(st).Args
		}
		id := p.tr.begin("sql.exec", firstStmt+i, -1)
		t0 := now()
		res, err := prep.Exec(args)
		us := float64(now()-t0) / 1e3
		p.tr.end(id)
		if err == nil {
			err = st.check(&wire.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected})
		}
		if err != nil {
			failed++
			p.info = append(p.info, fmt.Sprintf("FAILED (in-process %s): %v", st.kind, err))
			continue
		}
		execUs = append(execUs, us)
		p.kindUs[st.kind] = append(p.kindUs[st.kind], us)
		if sql.IsWrite(prep.Stmt()) {
			writes++
		}
	}
	io1, wal1 := p.e.db.IOStats(), p.e.db.WALStats()
	n := float64(p.plan.stmts)
	p.set("sql.prepare_us_per_stmt", mean(prepUs), "us")
	p.set("exec.stmt_us", mean(execUs), "us")
	p.set("enclave.blocks_opened_per_stmt", float64(io1.BlocksOpened-io0.BlocksOpened)/n, "count")
	p.set("enclave.blocks_sealed_per_stmt", float64(io1.BlocksSealed-io0.BlocksSealed)/n, "count")
	p.set("enclave.bytes_opened_per_stmt", float64(io1.BytesOpened-io0.BytesOpened)/n, "B")
	p.writeShare = float64(writes) / n
	perWrite := func(delta uint64) float64 {
		if writes == 0 {
			return 0
		}
		return float64(delta) / float64(writes)
	}
	p.set("wal.commits_per_write_stmt", perWrite(wal1.Commits-wal0.Commits), "count")
	p.set("wal.bytes_per_write_stmt", perWrite(uint64(wal1.SizeBytes-wal0.SizeBytes)), "B")
	return failed, nil
}
