package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"rackblox/internal/core"
	"rackblox/internal/sim"
)

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricIsPrinted runs each workload briefly, plain and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that the output checks pass.
func TestEveryMetricIsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w.config = shortened(w.config)
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := runWorkload(w, 3, 0.1, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted < 1 {
				t.Errorf("%s traced=%v: result %+v, failed checks %q", w.name, traced,
					res.out, res.failedChecks)
			}
			if len(res.out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d",
					w.name, traced, len(res.out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s printed in %q, BENCHMARK.json says %q",
						w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if traced {
				var share float64
				for name, m := range res.out.Metrics {
					if strings.HasPrefix(name, "host.") && name != "host.samples" {
						share += m.Value
					}
				}
				if math.Abs(share-1) > 1e-9 {
					t.Errorf("%s: host shares sum to %v, want 1", w.name, share)
				}
			}
		}
	}
}

// shortened cuts the single-rack workloads' measuring window so the test
// stays quick; rack-repair's fault timeline needs its full window.
func shortened(config func(int64) core.Config) func(int64) core.Config {
	return func(seed int64) core.Config {
		cfg := config(seed)
		if cfg.Racks <= 1 {
			cfg.Duration = 200 * sim.Millisecond
		}
		return cfg
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "rackblox/internal/core.(*Rack).issue.func1", "rackblox/internal/sim.(*Engine).Step"}, "core"},
		{[]string{"rackblox/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"rackblox/internal/packet.Parse", "rackblox/internal/core.f"}, otherModule},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bgGCModule},
		{[]string{"main.main"}, otherModule},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
