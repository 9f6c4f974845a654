package stats

import (
	"strings"
	"testing"
)

func TestPlotCDF(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 1000; i++ {
		r.Add(Sample{Total: int64(i) * 1000}, int64(i))
	}
	out := r.All().PlotCDF("latency", 40)
	if !strings.Contains(out, "latency (n=1000)") {
		t.Fatalf("missing title: %s", out)
	}
	for _, p := range []string{"p50", "p99.9", "p100"} {
		if !strings.Contains(out, p) {
			t.Errorf("missing %s row", p)
		}
	}
	// The p100 bar must be the full width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if strings.Count(last, "#") != 40 {
		t.Errorf("p100 bar = %d hashes, want 40", strings.Count(last, "#"))
	}
}

func TestPlotCDFEmpty(t *testing.T) {
	out := NewRecorder().All().PlotCDF("empty", 0)
	if !strings.Contains(out, "(empty)") {
		t.Fatalf("empty plot: %s", out)
	}
}
