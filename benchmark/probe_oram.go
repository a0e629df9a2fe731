package main

// The oram rung calls indexed.Table.ORAM, oram.Scheme.DummyAccess and
// StashSize, and core.DB.IOStats.

// oram times one logical ORAM access on the index's own tree (a dummy
// access: indistinguishable from a real one and changes no block) and
// counts the sealed blocks it opens, eviction amortized in.
func (p *probes) oram() error {
	idx := p.tbl.Index()
	if idx == nil {
		p.set("oram.access_us", 0, "us")
		p.set("oram.blocks_per_access", 0, "count")
		p.set("oram.stash_after_run", 0, "count")
		return nil
	}
	o := idx.ORAM()
	// A fixed number of accesses first, so the block count is exact.
	const counted = 512
	io0 := p.e.db.IOStats()
	for i := 0; i < counted; i++ {
		if err := o.DummyAccess(); err != nil {
			return err
		}
	}
	io1 := p.e.db.IOStats()
	p.set("oram.blocks_per_access", float64(io1.BlocksOpened-io0.BlocksOpened)/counted, "count")
	us, err := timeOp(p.plan.perRung, 100, o.DummyAccess)
	if err != nil {
		return err
	}
	p.set("oram.access_us", us, "us")
	p.set("oram.stash_after_run", float64(o.StashSize()), "count")
	return nil
}
