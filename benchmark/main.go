// Command benchmark is the repository's served-path benchmark: four named
// workloads driven through the public client against an in-process server
// on loopback, end-to-end metrics from the client's side, and (with
// -trace 1) an outside-in cost ladder of per-layer rungs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The defaults of a real run (the smoke test shrinks them). Warm-up
// statements are executed and checked but not measured: plan cache, ORAM
// stash and allocator reach steady state and p99 settles. Set-up is
// repeated at least three times and until setupFor has been spent on it.
const (
	warmup   = 3 * time.Second
	setupFor = 1500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its JSON form is the benchmark's
// last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	seed     uint64
	info     []string // human-readable rows: sample counts, per-kind p50s, reconciliation
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same statements")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: the traced run, printing the per-layer metrics instead")
	repeat := fs.Int("repeat", 1, "run this many sets, seeds seed..seed+n-1, and print medians and quartiles")
	record := fs.String("o", "", "record the result set to this file")
	compare := fs.String("i", "", "compare to a recorded result set; exit 1 on a regression")
	outDir := fs.String("out", "benchmark/out", "directory for results.json, trace.json and journals")
	spec := fs.String("bounds", "BENCHMARK.json", "the benchmark's definition: metric names, units and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := loadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	set := resultSet{Seed: *seed, Seconds: *seconds, Trace: *trace}
	var last *result
	for r := 0; r < *repeat; r++ {
		for _, n := range names {
			cfg := config{seed: *seed + uint64(r), scale: 1, scratch: *outDir, warm: warmup, setupFor: setupFor}
			dur := time.Duration(*seconds) * time.Second
			var res *result
			if *trace == 1 {
				res, err = runTraced(n, cfg, planFor(dur), filepath.Join(*outDir, "trace.json"))
			} else {
				res, err = runLoaded(n, cfg, dur)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
				return 2
			}
			res.print(out, def)
			set.Runs = append(set.Runs, recorded{Workload: n, Seed: cfg.seed, result: *res})
			last = res
		}
	}
	if *repeat > 1 {
		set.printSpread(out, def)
	}
	code := 0
	for _, path := range []string{filepath.Join(*outDir, "results.json"), *record} {
		if path == "" {
			continue
		}
		if err := set.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 2
		}
	}
	if *compare != "" {
		regressions, err := set.compareTo(*compare, def, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressions > 0 {
			code = 1
		}
	}
	for _, r := range set.Runs {
		if !r.Correct {
			code = 1
		}
	}
	line, _ := json.Marshal(last)
	fmt.Fprintln(out, string(line))
	return code
}

// setUp times the workload's set-up several times and keeps the last
// instance. Short set-ups are repeated more, so the reported median is
// steady even where one set-up takes a tenth of a second.
func setUp(w *workload, spend time.Duration) (*env, float64, error) {
	var times []float64
	total := 0.0
	for {
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		t0 := time.Now()
		e, err := w.setup(false)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		times = append(times, s)
		total += s
		if len(times) >= 3 && (total >= spend.Seconds() || len(times) >= 201) {
			return e, median(times), nil
		}
		e.close()
	}
}

// runLoaded is the untraced run: set up, drive the closed loop, check.
func runLoaded(name string, cfg config, dur time.Duration) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	e, setupS, err := setUp(w, cfg.setupFor)
	if err != nil {
		return nil, err
	}
	defer e.close()
	streams := w.streams(loadConns * loadDepth)
	runtime.GC()
	load, err := runLoad(e, streams, loadConns, loadDepth, cfg.warm, dur)
	if err != nil {
		return nil, err
	}
	checks, fails, _ := w.finish(e, streams)

	res := &result{workload: name, seed: cfg.seed, Metrics: map[string]metric{}}
	res.Attempted = load.attempted + checks
	res.Failed = load.failed + len(fails)
	res.Correct = res.Failed == 0
	all := load.ms("")
	rates, quarterP99 := load.windows(dur)
	res.Metrics["stmts_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["p50_ms"] = metric{quantile(all, 0.50), "ms"}
	res.Metrics["p99_ms"] = metric{median(quarterP99), "ms"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.info = append(res.info, fmt.Sprintf("samples %d over %.2fs (%.1f/s overall, whole-run p99 %.3f ms), failed_share %d/%d, closed loop %d conns x %d in flight",
		len(all), load.elapsed().Seconds(), float64(len(all))/load.elapsed().Seconds(), quantile(all, 0.99), res.Failed, res.Attempted, loadConns, loadDepth))
	kinds := map[string]bool{}
	for _, sm := range load.samples {
		kinds[sm.kind] = true
	}
	for _, k := range sortedKeys(kinds) {
		ms := load.ms(k)
		res.info = append(res.info, fmt.Sprintf("  %-8s n=%-7d p50 %.3f ms", k, len(ms), median(ms)))
	}
	for _, err := range append([]error{load.firstErr}, fails...) {
		if err != nil {
			res.info = append(res.info, "FAILED: "+err.Error())
		}
	}
	return res, nil
}

// print writes the run for a reader: every metric the definition names,
// by name and unit, then the informational rows.
func (r *result) print(out io.Writer, def *spec) {
	fmt.Fprintf(out, "== %s seed=%d correct=%v attempted=%d failed=%d\n", r.workload, r.seed, r.Correct, r.Attempted, r.Failed)
	for _, m := range def.metrics() {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(out, "%-40s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, line := range r.info {
		fmt.Fprintln(out, line)
	}
}
