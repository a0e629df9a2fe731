package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"oblidb/internal/core"
)

// span is one timed interval at a layer boundary the benchmark can reach
// from outside. Spans of one statement share Stmt; Parent is the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced depth-1 pass runs the same code.
type tracer struct{ spans []span }

func (t *tracer) begin(name string, stmt, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Stmt: stmt, Start: now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = now()
	}
}

func (t *tracer) write(path, workload string) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedPlan sizes the traced run. The serial passes are counted, not
// timed, so their public counts repeat exactly.
type tracedPlan struct {
	stmts    int           // statements per serial pass
	epochs   int           // full-batch epochs
	loadFor  time.Duration // loaded phase (dummy share, wire bytes)
	loadWarm time.Duration
	perRung  time.Duration // time budget of each rung probe
}

func planFor(dur time.Duration) tracedPlan {
	return tracedPlan{stmts: 200, epochs: 25, loadFor: dur / 4, loadWarm: time.Second, perRung: dur / 40}
}

// probes carries one traced run's state from rung to rung: the serial
// engine under test, the per-layer metrics measured so far, and the
// spans.
type probes struct {
	e    *env
	tbl  *core.Table
	plan tracedPlan
	tr   *tracer
	m    map[string]metric
	info []string

	served    []served             // the serial served pass, traced and untraced statements alternating
	exchanges []exchange           // requests and results of its traced statements, for the codec rung
	kindUs    map[string][]float64 // in-process execution time per statement kind
	// writeShare is the share of in-process statements that mutate.
	writeShare float64
}

func (p *probes) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }
func (p *probes) get(name string) float64                 { return p.m[name].Value }

// rung runs one layer's probe under its own span.
func (p *probes) rung(name string, fn func() error) error {
	id := p.tr.begin("probe."+name, -1, -1)
	err := fn()
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s probe: %w", name, err)
	}
	return nil
}

// runTraced is the separate traced run. It first drives the loaded shape
// briefly for the counters that only mean something under load, then
// runs serially (one connection, one statement in flight, a Manual server
// so the ticker adds nothing): a served pass in which every other
// statement is traced, the same stream continued in-process down the
// ladder, the rung probes on the workload's own tables, and full-batch
// epochs.
func runTraced(name string, cfg config, plan tracedPlan, spanFile string) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{workload: name, seed: cfg.seed, Metrics: map[string]metric{}}
	p := &probes{plan: plan, tr: &tracer{}, m: res.Metrics, kindUs: map[string][]float64{}}

	if err := p.loaded(w, res); err != nil {
		return nil, err
	}

	e, err := w.setup(true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	p.e = e
	if p.tbl, err = e.db.Table(e.table); err != nil {
		return nil, err
	}
	sess, err := dial(e.addr)
	if err != nil {
		return nil, err
	}
	defer sess.conn.Close()
	streams := w.streams(1 + epochSize) // one serial, the rest for full epochs
	runtime.GC()

	var failed int
	p.served, failed = p.servedSerial(sess, streams[0])
	n, err := p.ladder(streams[0], 2*plan.stmts)
	if err != nil {
		return nil, err
	}
	failed += n
	for _, r := range []struct {
		name string
		fn   func() error
	}{
		// oram before indexed: its block count is exact only while the
		// tree's state is still a function of the seed, and the indexed
		// rung works on the tree for a time budget, not a count.
		{"wire", p.wire}, {"sql", p.sql}, {"storage", p.storage}, {"oram", p.oram}, {"indexed", p.indexed},
		{"enclave", p.enclave}, {"crypt", p.crypt}, {"wal", p.wal},
	} {
		if err := p.rung(r.name, r.fn); err != nil {
			return nil, err
		}
	}
	// Last: eight concurrent senders reach the queue in any order, so from
	// here on the engine's state is no longer a function of the seed alone.
	if n, err = p.fullEpochs(sess, streams[1:]); err != nil {
		return nil, err
	}
	failed += n
	checks, fails, recoverS := w.finish(e, streams)
	p.set("wal.recover_s", recoverS, "s")

	p.reconcile()

	res.Attempted += 3*plan.stmts + plan.epochs*epochSize + checks
	res.Failed += failed + len(fails)
	res.Correct = res.Failed == 0
	res.info = append(res.info, p.info...)
	for _, err := range fails {
		res.info = append(res.info, "FAILED: "+err.Error())
	}
	if err := p.tr.write(spanFile, name); err != nil {
		return nil, err
	}
	res.info = append(res.info, fmt.Sprintf("%d spans written to %s", len(p.tr.spans), spanFile))
	return res, nil
}

// loaded drives the closed-loop shape on a ticking server and reads the
// counters that depend on load: how full the epochs ran, bytes on the
// wire per statement, and how many statements replayed a compiled plan.
func (p *probes) loaded(w *workload, res *result) error {
	e, err := w.setup(false)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	streams := w.streams(loadConns * loadDepth)
	before := e.srv.Stats()
	load, err := runLoad(e, streams, loadConns, loadDepth, p.plan.loadWarm, p.plan.loadFor)
	if err != nil {
		return err
	}
	after := e.srv.Stats()
	real := float64(after.Real - before.Real)
	p.set("server.dummy_share", float64(after.Dummy-before.Dummy)/(real+float64(after.Dummy-before.Dummy)), "share")
	p.set("wire.bytes_per_stmt", float64(load.wireBytes)/float64(load.issued), "B")
	// Dummies replay one prepared plan and never compile, so compiles
	// over real statements is the share of real statements that planned.
	// (The dummy itself recompiles once after set-up's DDL, hence the clamp.)
	p.set("sql.plan_cache_hit_ratio", math.Max(0, 1-float64(after.PlanCompiles-before.PlanCompiles)/real), "share")
	checks, fails, _ := w.finish(e, streams)
	res.Attempted += load.attempted + checks
	res.Failed += load.failed + len(fails)
	for _, err := range append([]error{load.firstErr}, fails...) {
		if err != nil {
			p.info = append(p.info, "FAILED (loaded phase): "+err.Error())
		}
	}
	return nil
}

// reconcile prints the cost ladder in two levels, each row a mean per
// statement (a p50 over a stream of mixed kinds does not add up; the p50
// is printed beside it). Level one is the depth-1 client time as the
// rungs below it plus a named residual: the traced client.exec spans'
// self time — the span minus the server.epoch inside it — less the codec
// and prepare rungs. Level two is the in-process statement time as
// sealed-block I/O and journal commits, at their exact public counts,
// plus the operators' own time.
func (p *probes) reconcile() {
	// Level one averages the traced statements, leaving out the twentieth
	// with the largest self time: stalls between the client and the epoch
	// (a GC pause, the sandbox's neighbours) that would otherwise decide
	// the mean. The rows still add up: they are means over one set.
	var traced, untraced []served
	for _, s := range p.served {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	clientUs := func(ss []served) []float64 {
		us := make([]float64, len(ss))
		for i, s := range ss {
			us[i] = s.clientUs
		}
		return us
	}
	p.set("client.depth1_p50_us", median(clientUs(traced)), "us")
	p.set("trace.overhead_share", mean(clientUs(traced))/mean(clientUs(untraced))-1, "share")
	sort.Slice(traced, func(i, j int) bool {
		return traced[i].clientUs-traced[i].epochUs < traced[j].clientUs-traced[j].epochUs
	})
	kept := traced[:len(traced)-len(traced)/20]
	var client, epoch, execAtMix float64
	for _, s := range kept {
		n := float64(len(kept))
		client += s.clientUs / n
		epoch += s.epochUs / n
		// The in-process pass ran other statements of the same stream:
		// weigh its per-kind means by this pass's mix of kinds.
		execAtMix += mean(p.kindUs[s.kind]) / n
	}
	codec, prep := p.get("wire.codec_us_per_stmt"), p.get("sql.prepare_us_per_stmt")
	p.set("client.depth1_mean_us", client, "us")
	p.set("server.epoch_depth1_us", epoch, "us")
	p.set("server.residual_us", client-epoch-codec-prep, "us")

	stmt := p.get("exec.stmt_us")
	readUs, rmwUs := p.get("enclave.read_us_per_block"), p.get("enclave.rmw_us_per_block")
	open := p.get("enclave.blocks_opened_per_stmt") * readUs
	seal := p.get("enclave.blocks_sealed_per_stmt") * (rmwUs - readUs)
	journal := p.get("wal.commits_per_write_stmt") * p.get("wal.commit_us") * p.writeShare
	p.set("exec.self_us", stmt-open-seal-journal, "us")
	look, ins, del := p.indexOps()
	index := look*p.get("indexed.lookup_us") + ins*p.get("indexed.insert_us") + del*p.get("indexed.delete_us")

	p.info = append(p.info, fmt.Sprintf("cost ladder, mean us per statement over %d traced serial statements (share of client.exec):", len(kept)))
	row := func(name string, us, of float64) {
		p.info = append(p.info, fmt.Sprintf("  %-52s %10.1f %5.1f%%", name, us, 100*us/of))
	}
	row("client.exec (p50 "+fmt.Sprintf("%.1f", p.get("client.depth1_p50_us"))+")", client, client)
	row("= wire.codec_us_per_stmt", codec, client)
	row("+ sql.prepare_us_per_stmt", prep, client)
	row("+ server.epoch_depth1_us (1 real + 7 dummies)", epoch, client)
	row("    exec.stmt_us at this pass's mix of kinds", execAtMix, client)
	row("    dummies, slot bookkeeping, reply hand-off", epoch-execAtMix, client)
	row("+ server.residual_us (session hops, loopback, GC)", p.get("server.residual_us"), client)
	p.info = append(p.info, "in-process statement (share of exec.stmt_us):")
	row("exec.stmt_us", stmt, stmt)
	row("= blocks opened x enclave.read_us_per_block", open, stmt)
	row("+ blocks sealed x (rmw_us - read_us)", seal, stmt)
	row("+ journal commits x wal.commit_us", journal, stmt)
	row("+ exec.self_us (operators, ORAM and tree logic)", p.get("exec.self_us"), stmt)
	row("indexed rungs x index operations per statement", index, stmt)
	for _, k := range sortedKeys(p.kindUs) {
		p.info = append(p.info, fmt.Sprintf("  exec.stmt_us[%s] n=%d mean %.1f p50 %.1f", k, len(p.kindUs[k]), mean(p.kindUs[k]), median(p.kindUs[k])))
	}
}
