package main

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, loaded and traced, at a twentieth of the
// table sizes for a fraction of a second: every metric BENCHMARK.json
// names must come out finite, nothing may fail, and the traced run's
// public counts must be identical across two runs on one seed.
func TestSmoke(t *testing.T) {
	def, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 7, scale: 0.05, scratch: t.TempDir(), warm: 100 * time.Millisecond}
	plan := tracedPlan{stmts: 50, epochs: 3, loadFor: 200 * time.Millisecond, loadWarm: 50 * time.Millisecond, perRung: 5 * time.Millisecond}
	spans := filepath.Join(cfg.scratch, "trace.json")
	for _, name := range workloadNames {
		loaded, err := runLoaded(name, cfg, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := loaded.finite(def.EndToEnd); err != nil {
			t.Error(err)
		}
		first, err := runTraced(name, cfg, plan, spans)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if err := first.finite(def.PerLayer); err != nil {
			t.Error(err)
		}
		second, err := runTraced(name, cfg, plan, spans)
		if err != nil {
			t.Fatalf("%s traced again: %v", name, err)
		}
		for _, r := range []*result{loaded, first, second} {
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s: failed %d of %d: %v", name, r.Failed, r.Attempted, r.info)
			}
		}
		for count := range exactCounts {
			if a, b := first.Metrics[count].Value, second.Metrics[count].Value; a != b {
				t.Errorf("%s: %s differs between two runs on one seed: %v then %v", name, count, a, b)
			}
		}
	}
}

// finite reports whether every metric the run should print is present
// and a finite number.
func (r *result) finite(want []metricDef) error {
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", r.workload, m.Name)
		}
	}
	return nil
}
