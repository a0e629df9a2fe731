package main

import (
	"oblidb/internal/table"
)

// The indexed rung calls core.Table.Index and indexed.Table.LookupInto,
// Insert, Delete and NumRows.

// probeKey is far above every key a workload loads or inserts.
const probeKey = int64(1) << 40

// indexed times the index's three point operations on the workload's own
// tree. Each inserted probe key is deleted again, so the table ends as it
// began.
func (p *probes) indexed() error {
	idx := p.tbl.Index()
	if idx == nil {
		for _, name := range []string{"indexed.lookup_us", "indexed.insert_us", "indexed.delete_us"} {
			p.set(name, 0, "us")
		}
		return nil
	}
	dst := make(table.Row, idx.Schema().NumColumns())
	loaded := int64(idx.NumRows())
	k := int64(0)
	us, err := timeOp(p.plan.perRung, 50, func() error {
		k = (k + 7919) % loaded
		_, err := idx.LookupInto(k, dst)
		return err
	})
	if err != nil {
		return err
	}
	p.set("indexed.lookup_us", us, "us")

	// Means, as in timeOp: ORAM evictions are part of the cost.
	var insNs, delNs, n int64
	for start := now(); n < 50 || now()-start < int64(p.plan.perRung); n++ {
		t0 := now()
		if err := idx.Insert(table.Row{table.Int(probeKey + n), table.Str("probe")}); err != nil {
			return err
		}
		t1 := now()
		if _, err := idx.Delete(probeKey + n); err != nil {
			return err
		}
		insNs += t1 - t0
		delNs += now() - t1
	}
	p.set("indexed.insert_us", float64(insNs)/1e3/float64(n), "us")
	p.set("indexed.delete_us", float64(delNs)/1e3/float64(n), "us")
	return nil
}

// indexOps is how many index lookups, inserts and deletes the average
// statement of the in-process pass implies, from its kind: a point
// SELECT is one lookup, an INSERT one insert, a DELETE a lookup and a
// delete, an UPDATE a lookup, a delete and an insert.
func (p *probes) indexOps() (lookups, inserts, deletes float64) {
	if p.tbl.Index() == nil {
		return 0, 0, 0
	}
	total := 0.0
	for kind, us := range p.kindUs {
		n := float64(len(us))
		total += n
		switch kind {
		case "select":
			lookups += n
		case "insert":
			inserts += n
		case "delete":
			lookups, deletes = lookups+n, deletes+n
		case "update":
			lookups, inserts, deletes = lookups+n, inserts+n, deletes+n
		}
	}
	return lookups / total, inserts / total, deletes / total
}
