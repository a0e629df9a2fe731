package main

import (
	"oblidb/internal/table"
	"oblidb/internal/wire"
)

// The wire rung calls wire.EncodeRequest, DecodeRequest, EncodeResponse
// and DecodeResponse.

// request rebuilds the frame the client sends for st.
func request(st statement) *wire.Request {
	if st.args == nil {
		return &wire.Request{Type: wire.TExec, ID: 1, SQL: st.sql}
	}
	vals := make([]table.Value, len(st.args))
	for i, a := range st.args {
		vals[i], _ = table.FromAny(a) // the client already bound these without error
	}
	return &wire.Request{Type: wire.TExecPrepared, ID: 1, Handle: 1, Args: vals}
}

// wire times the four codec calls one statement costs — both ends of the
// request and of the reply — on the traced pass's own messages.
func (p *probes) wire() error {
	var us []float64
	for _, x := range p.exchanges {
		t0 := now()
		if _, err := wire.DecodeRequest(wire.EncodeRequest(x.req)); err != nil {
			return err
		}
		resp := wire.EncodeResponse(&wire.Response{Type: wire.TResult, ID: 1, Result: x.res})
		if _, err := wire.DecodeResponse(resp); err != nil {
			return err
		}
		us = append(us, float64(now()-t0)/1e3)
	}
	p.set("wire.codec_us_per_stmt", mean(us), "us")
	return nil
}
