package main

import (
	"oblidb/internal/sql"
)

// The sql rungs call sql.Parse, sql.New, sql.Executor.Prepare and
// sql.Executor.Execute (for EXPLAIN).

// sql times parsing alone, a cold Prepare (fresh executor: parse, shape,
// cache insert) and a cached one, on the workload's own statement texts.
func (p *probes) sql() error {
	var parse, miss, hit []float64
	for _, x := range p.exchanges {
		src := x.sql
		t0 := now()
		if _, err := sql.Parse(src); err != nil {
			return err
		}
		t1 := now()
		ex := sql.New(p.e.db)
		t2 := now()
		if _, err := ex.Prepare(src); err != nil {
			return err
		}
		t3 := now()
		if _, err := ex.Prepare(src); err != nil {
			return err
		}
		t4 := now()
		parse = append(parse, float64(t1-t0)/1e3)
		miss = append(miss, float64(t3-t2)/1e3)
		hit = append(hit, float64(t4-t3)/1e3)
	}
	// The access path the planner picks for the workload's first statement:
	// a later planner change that moves a workload off its intended path
	// (point_read off the index) shows here, not only in the numbers.
	if r, err := sql.New(p.e.db).Execute("EXPLAIN " + p.exchanges[0].sql); err == nil {
		for _, row := range r.Rows {
			p.info = append(p.info, "plan: "+row[0].AsString())
		}
	}
	p.set("sql.parse_us", mean(parse), "us")
	p.set("sql.prepare_miss_us", mean(miss), "us")
	p.set("sql.prepare_hit_us", mean(hit), "us")
	return nil
}
