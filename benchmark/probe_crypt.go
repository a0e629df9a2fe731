package main

import (
	"oblidb/internal/crypt"
)

// The crypt rung calls crypt.NewRandomKey, NewSealer, SealedSize,
// Sealer.SealTo and Sealer.OpenInto.

// crypt times sealing and opening one block of the main store's size,
// per plaintext byte.
func (p *probes) crypt() error {
	size := p.mainStore().BlockSize()
	sealer, err := crypt.NewSealer(crypt.NewRandomKey())
	if err != nil {
		return err
	}
	plain := make([]byte, size)
	sealed := make([]byte, 0, crypt.SealedSize(size))
	rev := uint64(0)
	us, err := timeOp(p.plan.perRung, 200, func() error {
		rev++
		sealed = sealer.SealTo(sealed[:0], 1, 2, rev, plain)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("crypt.seal_ns_per_byte", 1e3*us/float64(size), "ns/B")
	opened := make([]byte, 0, size)
	us, err = timeOp(p.plan.perRung, 200, func() error {
		_, err := sealer.OpenInto(opened[:0], 1, 2, rev, sealed)
		return err
	})
	if err != nil {
		return err
	}
	p.set("crypt.open_ns_per_byte", 1e3*us/float64(size), "ns/B")
	return nil
}
