package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"oblidb/client"
	"oblidb/internal/wire"
)

var processStart = time.Now()

// now is a monotonic nanosecond clock shared by load samples and spans.
func now() int64 { return int64(time.Since(processStart)) }

// session is one client connection plus the prepared statements opened
// on it, prepared on first use (during warm-up) and reused after.
type session struct {
	conn  *client.Conn
	mu    sync.Mutex
	stmts map[string]*client.Stmt
}

func dial(addr string) (*session, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &session{conn: c, stmts: map[string]*client.Stmt{}}, nil
}

func (s *session) exec(st statement) (*wire.Result, error) {
	if st.args == nil {
		return s.conn.Exec(st.sql)
	}
	s.mu.Lock()
	ps := s.stmts[st.sql]
	if ps == nil {
		var err error
		if ps, err = s.conn.Prepare(st.sql); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.stmts[st.sql] = ps
	}
	s.mu.Unlock()
	return ps.Exec(st.args...)
}

// run executes one statement and checks its reply.
func (s *session) run(st statement) error {
	res, err := s.exec(st)
	if err != nil {
		return fmt.Errorf("%s: %w", st.kind, err)
	}
	if err := st.check(res); err != nil {
		return fmt.Errorf("%s: wrong answer: %w", st.kind, err)
	}
	return nil
}

// loadResult is what one closed-loop run observed from the client side.
type loadResult struct {
	samples   []sample // every measured statement, in order of completion
	attempted int
	failed    int
	firstErr  error
	wireBytes uint64 // both directions, frame headers included, whole run
	issued    int    // statements issued over the whole run, warm-up included
}

// sample is one measured statement: when its reply arrived, as an offset
// from the end of warm-up, and how long it took.
type sample struct {
	kind string
	at   time.Duration
	ms   float64
}

// ms returns the latencies of the measured statements of one kind, or of
// all when kind is "".
func (r *loadResult) ms(kind string) []float64 {
	var out []float64
	for _, s := range r.samples {
		if kind == "" || s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// elapsed is the time from the end of warm-up to the last reply.
func (r *loadResult) elapsed() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return r.samples[len(r.samples)-1].at
}

// windows returns the throughput of each twentieth of the measured
// statements (in order of completion: statements over the time they took
// to complete) and the p99 of each quarter of the measured period. The run
// reports the medians of both: a burst of outside interference (the
// sandbox's neighbours) then moves one window, not the metric. A quarter
// of the slowest workload's run still holds some 600 samples.
func (r *loadResult) windows(dur time.Duration) (rates, quarterP99 []float64) {
	const parts = 20
	n, from := len(r.samples), time.Duration(0)
	for k := 1; k <= parts && n >= parts; k++ {
		lo, hi := (k-1)*n/parts, k*n/parts
		to := r.samples[hi-1].at
		rates = append(rates, float64(hi-lo)/(to-from).Seconds())
		from = to
	}
	quarters := make([][]float64, 4)
	for _, s := range r.samples {
		if q := int(4 * s.at / dur); q < 4 {
			quarters[q] = append(quarters[q], s.ms)
		}
	}
	for _, q := range quarters {
		quarterP99 = append(quarterP99, quantile(q, 0.99))
	}
	return rates, quarterP99
}

// runLoad drives the closed loop: conns connections, depth workers on
// each, every worker sending its next statement only after the previous
// reply. Statements sent before the warm-up ends are executed and
// checked but not measured.
func runLoad(e *env, streams []stream, conns, depth int, warm, dur time.Duration) (*loadResult, error) {
	sessions := make([]*session, conns)
	for i := range sessions {
		s, err := dial(e.addr)
		if err != nil {
			return nil, err
		}
		defer s.conn.Close()
		sessions[i] = s
	}
	outs := make([]loadResult, len(streams)) // one per worker, merged below
	measureFrom := now() + int64(warm)
	deadline := measureFrom + int64(dur)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, sess := &outs[i], sessions[i/depth]
			for {
				t0 := now()
				if t0 >= deadline {
					return
				}
				st := streams[i].next()
				err := sess.run(st)
				t1 := now()
				out.issued++
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
				switch {
				case t0 >= measureFrom:
					out.attempted++
					out.samples = append(out.samples, sample{st.kind, time.Duration(t1 - measureFrom), float64(t1-t0) / 1e6})
				case err != nil:
					out.attempted++ // a warm-up failure still makes the run incorrect
				}
			}
		}(i)
	}
	wg.Wait()
	res := &loadResult{}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.attempted += o.attempted
		res.failed += o.failed
		res.issued += o.issued
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })
	for _, s := range sessions {
		cs := s.conn.Stats()
		res.wireBytes += cs.BytesWritten + cs.BytesRead
	}
	return res, nil
}
