package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program reads: which metrics a
// run must print and by how much each end-to-end metric may worsen.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) metrics() []metricDef {
	return append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...)
}

// exactCounts are the public counts of the serial traced run: functions
// of the seed and public sizes only, so two runs of one commit on one
// seed must agree to the last digit.
var exactCounts = map[string]bool{
	"enclave.blocks_opened_per_stmt": true,
	"enclave.blocks_sealed_per_stmt": true,
	"enclave.bytes_opened_per_stmt":  true,
	"oram.blocks_per_access":         true,
	"wal.commits_per_write_stmt":     true,
	"wal.bytes_per_write_stmt":       true,
}

type recorded struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// resultSet is what -o records and -i reads back: every run of one
// invocation, in BENCHMARK.json's vocabulary.
type resultSet struct {
	Seed    uint64     `json:"seed"`
	Seconds int        `json:"seconds"`
	Trace   int        `json:"trace"`
	Runs    []recorded `json:"runs"`
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one metric's value from every run of one workload.
func (s *resultSet) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (s *resultSet) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printSpread prints each metric's median and quartiles over the
// repeated sets, and the interquartile range as a share of the median —
// the spread the bounds in BENCHMARK.json were chosen against.
func (s *resultSet) printSpread(out io.Writer, def *spec) {
	fmt.Fprintf(out, "== spread over %d sets\n%-14s %-38s %12s %12s %12s %8s\n",
		len(s.Runs)/len(s.workloads()), "workload", "metric", "q1", "median", "q3", "iqr/med")
	for _, w := range s.workloads() {
		for _, m := range def.metrics() {
			vs := s.values(w, m.Name)
			if len(vs) < 2 {
				continue
			}
			q1, med, q3 := quantile(vs, 0.25), median(vs), quantile(vs, 0.75)
			share := 0.0
			if med != 0 {
				share = (q3 - q1) / med
			}
			fmt.Fprintf(out, "%-14s %-38s %12.4f %12.4f %12.4f %7.1f%%\n", w, m.Name, q1, med, q3, 100*share)
		}
	}
}

// compareTo compares this set's medians to a recording's, cell by cell:
// an end-to-end metric regresses when it is worse than the recording by
// more than its bound, an exact count when it differs at all on the same
// seed. It returns the number of regressions.
func (s *resultSet) compareTo(path string, def *spec, out io.Writer) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base resultSet
	if err := json.Unmarshal(b, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	regressions := 0
	fmt.Fprintf(out, "== compared to %s\n%-14s %-38s %12s %12s %8s %8s\n", path, "workload", "metric", "recorded", "now", "worse", "bound")
	for _, w := range s.workloads() {
		for _, m := range def.metrics() {
			was, is := base.values(w, m.Name), s.values(w, m.Name)
			if len(was) == 0 || len(is) == 0 {
				continue
			}
			a, b := median(was), median(is)
			verdict := ""
			worse := 0.0
			switch {
			case exactCounts[m.Name]:
				if base.Seed == s.Seed && a != b {
					verdict = "COUNT DIFFERS"
				}
			case m.Bound > 0 && a != 0:
				worse = (b - a) / a
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					verdict = "REGRESSION"
				}
			default:
				continue
			}
			if verdict != "" {
				regressions++
			}
			fmt.Fprintf(out, "%-14s %-38s %12.4f %12.4f %7.1f%% %7.1f%% %s\n", w, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressions, nil
}
