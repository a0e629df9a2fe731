// Command oblidb-bench regenerates the tables and figures of the ObliDB
// paper's evaluation (§7). Each figure id maps to one experiment; see
// DESIGN.md's per-experiment index.
//
// Usage:
//
//	oblidb-bench -all                # every figure at default (10%) scale
//	oblidb-bench -fig 7 -fig 13      # selected figures
//	oblidb-bench -all -full          # paper-scale data (slow)
//	oblidb-bench -all -scale 0.02    # custom scale
//
// Absolute timings depend on this machine; the reproduced artifact is the
// relative shape of each figure. End-to-end served-path numbers, and any
// performance claim, come from the benchmark/ directory instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"oblidb/internal/bench"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, ok := bench.Figures[part]; !ok {
			return fmt.Errorf("unknown figure %q (have %s)", part, knownFigures())
		}
		*f = append(*f, part)
	}
	return nil
}

func knownFigures() string {
	ids := make([]string, 0, len(bench.Figures))
	for id := range bench.Figures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

func main() {
	var figs figList
	flag.Var(&figs, "fig", "figure id to run (repeatable or comma-separated); see DESIGN.md")
	all := flag.Bool("all", false, "run every figure")
	full := flag.Bool("full", false, "paper-scale data (equivalent to -scale 1; slow)")
	scale := flag.Float64("scale", 0.1, "fraction of paper-scale data")
	seed := flag.Uint64("seed", 0, "data generation seed (0 = default)")
	flag.Parse()

	if *full {
		*scale = 1
	}
	if *all {
		figs = append([]string{}, bench.Order...)
	}
	if len(figs) == 0 {
		fmt.Fprintf(os.Stderr, "oblidb-bench: nothing to run; use -all or -fig <id> (ids: %s)\n", knownFigures())
		os.Exit(2)
	}

	opts := bench.Options{Scale: *scale, Out: os.Stdout, Seed: *seed}
	fmt.Printf("ObliDB benchmark harness — scale %.3g of paper size\n\n", *scale)
	start := time.Now()
	for _, id := range figs {
		if err := bench.Figures[id](opts); err != nil {
			fmt.Fprintf(os.Stderr, "oblidb-bench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}
