package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestAllFiguresSmoke runs every experiment at a tiny scale: the point is
// that each runner executes end to end and produces its table.
func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness smoke test skipped in -short mode")
	}
	var buf bytes.Buffer
	o := Options{Scale: 0.004, Out: &buf, Seed: 7}
	if err := RunAll(o); err != nil {
		t.Fatalf("RunAll: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 6", "Figure 7", "Figure 8",
		"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Figure 14", "Padding mode", "Parallel speedup",
		"Opaque Oblivious", "ObliDB (indexed)", "Spark SQL (plain)",
		"HIRB", "planner pick", "Speedup @4",
		"Indexed access method", "index point",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 0.1 {
		t.Fatalf("default scale %v", o.scale())
	}
	if o.n(100) != 10 || o.n(10) != 8 {
		t.Fatalf("n scaling: %d %d", o.n(100), o.n(10))
	}
	if o.seed() == 0 {
		t.Fatal("default seed is zero")
	}
	if o.obliviousMemory() < 1<<20 || o.opaqueMemory() < o.obliviousMemory() {
		t.Fatal("memory defaults out of order")
	}
}

func TestTablePrinter(t *testing.T) {
	var buf bytes.Buffer
	tp := newTable("A", "Blong")
	tp.addf("x", 1500*time.Millisecond)
	tp.addf(42, 3.14159)
	tp.render(&buf)
	out := buf.String()
	for _, want := range []string{"A", "Blong", "1.500s", "42", "3.14"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.000s",
		1500 * time.Microsecond: "1.50ms",
		800 * time.Nanosecond:   "0.8µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(2*time.Second, time.Second) != "2.0×" {
		t.Fatal("ratio wrong")
	}
	if ratio(time.Second, 0) != "—" {
		t.Fatal("zero denominator not handled")
	}
}

func TestFigureRegistryComplete(t *testing.T) {
	if len(Order) != len(Figures) {
		t.Fatalf("Order has %d entries, Figures %d", len(Order), len(Figures))
	}
	for _, id := range Order {
		if Figures[id] == nil {
			t.Fatalf("figure %q missing from registry", id)
		}
	}
}
