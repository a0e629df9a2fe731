package main

import (
	"oblidb/internal/enclave"
)

// The enclave rung calls enclave.Store.ReadInto, RMW, Len and BlockSize
// on the store behind the workload's table.

// mainStore is the sealed store that carries most of the workload's
// blocks: the index's ORAM tree where there is one, else the flat table.
func (p *probes) mainStore() *enclave.Store {
	if idx := p.tbl.Index(); idx != nil {
		return idx.Store()
	}
	return p.tbl.Flat().Store()
}

// enclave times opening one sealed block, and opening and re-sealing it
// unchanged, at the store's own block size.
func (p *probes) enclave() error {
	s := p.mainStore()
	buf := make([]byte, s.BlockSize())
	i := 0
	next := func() int { i = (i + 1) % s.Len(); return i }
	us, err := timeOp(p.plan.perRung, 200, func() error {
		_, err := s.ReadInto(next(), buf)
		return err
	})
	if err != nil {
		return err
	}
	p.set("enclave.read_us_per_block", us, "us")
	us, err = timeOp(p.plan.perRung, 200, func() error {
		_, err := s.RMW(next(), buf, func([]byte) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	p.set("enclave.rmw_us_per_block", us, "us")
	return nil
}
