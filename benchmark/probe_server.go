package main

import (
	"fmt"
	"runtime"
	"time"

	"oblidb/internal/wire"
)

// The server rungs call server.Server.RunEpoch, Pending and Stats on a
// Manual server, and time the public client around them.

// exchange is one served statement's request and reply, kept so the wire
// and sql rungs can time the codec and the parser on the workload's own
// messages.
type exchange struct {
	sql string
	req *wire.Request
	res *wire.Result
}

type reply struct {
	res *wire.Result
	err error
}

// admit waits until want statements sit in the server's queue, or until
// one of them came back without ever reaching it (a parse error). It
// yields in a loop for the first 100 us, which is when a statement
// normally arrives, and then polls with a short sleep: on a two-core box
// a goroutine that only spins can keep the runtime from polling the
// network and stall the very session it waits for. What the wait costs
// lands in server.residual_us.
func (p *probes) admit(want int, done chan reply) (early *reply) {
	for start := now(); p.e.srv.Pending() < want; {
		select {
		case r := <-done:
			return &r
		default:
		}
		if now()-start < int64(100*time.Microsecond) {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
	return nil
}

// served is one statement of the serial served pass as the client saw it.
type served struct {
	kind     string
	traced   bool
	clientUs float64 // send -> reply
	epochUs  float64 // the RunEpoch() that served it
}

// servedSerial sends 2*plan.stmts statements one at a time through the
// client, running one epoch by hand for each. Every other statement is
// traced — a client.exec span with the server.epoch that served it inside
// — and the rest run the same code with no tracer, so the two halves see
// the same conditions and their difference is the tracing overhead.
func (p *probes) servedSerial(sess *session, s stream) (out []served, failed int) {
	for i := 0; i < 2*p.plan.stmts; i++ {
		var tr *tracer
		if i%2 == 0 {
			tr = p.tr
		}
		st := s.next()
		done := make(chan reply, 1)
		root := tr.begin("client.exec", i, -1)
		t0 := now()
		go func() {
			res, err := sess.exec(st)
			done <- reply{res, err}
		}()
		r := p.admit(1, done)
		epochUs := 0.0
		if r == nil {
			ep := tr.begin("server.epoch", i, root)
			te := now()
			p.e.srv.RunEpoch()
			epochUs = float64(now()-te) / 1e3
			tr.end(ep)
			got := <-done
			r = &got
		}
		clientUs := float64(now()-t0) / 1e3
		tr.end(root)
		if r.err == nil {
			r.err = st.check(r.res)
		}
		if r.err != nil {
			failed++
			p.info = append(p.info, fmt.Sprintf("FAILED (serial %s): %v", st.kind, r.err))
			continue
		}
		out = append(out, served{st.kind, tr != nil, clientUs, epochUs})
		if tr != nil {
			p.exchanges = append(p.exchanges, exchange{st.sql, request(st), r.res})
		}
	}
	return out, failed
}

// fullEpochs fills every slot of an epoch with one statement from each
// of epochSize streams and times RunEpoch on the full batch: the epoch's
// busy time at saturation, with no dummies in it.
func (p *probes) fullEpochs(sess *session, streams []stream) (failed int, err error) {
	var busyUs []float64
	for i := 0; i < p.plan.epochs; i++ {
		done := make(chan reply, len(streams))
		stmts := make([]statement, len(streams))
		for w, s := range streams {
			stmts[w] = s.next()
			go func(st statement) {
				res, err := sess.exec(st)
				if err == nil {
					err = st.check(res)
				}
				done <- reply{res, err}
			}(stmts[w])
		}
		early := p.admit(len(streams), done)
		if early != nil {
			return 0, fmt.Errorf("full epoch: a statement never reached the queue: %v", early.err)
		}
		t0 := now()
		p.e.srv.RunEpoch()
		busyUs = append(busyUs, float64(now()-t0)/1e3)
		for range streams {
			if r := <-done; r.err != nil {
				failed++
				p.info = append(p.info, fmt.Sprintf("FAILED (full epoch): %v", r.err))
			}
		}
	}
	p.set("server.epoch_busy_us", mean(busyUs), "us")
	return failed, nil
}
