package rackblox

// Benchmarks regenerating every table and figure of the RackBlox
// evaluation (§4). Each benchmark runs the corresponding experiment sweep
// at a reduced scale and reports the headline metric as custom units, so
// `go test -bench=. -benchmem` prints the same series the paper plots.
// cmd/rackbench runs the same sweeps at full scale.

import (
	"strings"
	"testing"

	"rackblox/internal/experiments"
)

// metricName builds a whitespace-free unit label for ReportMetric.
func metricName(parts ...string) string {
	s := strings.Join(parts, "/")
	s = strings.NewReplacer(" ", "_", "(", "", ")", "", "\t", "_").Replace(s)
	return s
}

// benchScale shrinks the measured windows so the full suite stays in
// benchmark-friendly time while preserving the comparative shape. It
// MUST match the scale of the checked-in BENCH_*.json trajectory (0.25,
// recorded in the file's "scale" field) so benchmark runs and the
// trajectory are directly comparable.
const benchScale = experiments.Scale(0.25)

// reportTable re-emits experiment rows as benchmark metrics.
func reportTable(b *testing.B, tables []*experiments.Table, metric string) {
	for _, t := range tables {
		for _, r := range t.Rows {
			if v, ok := r.Values[metric]; ok {
				b.ReportMetric(v, metricName(t.ID, r.Series, r.X))
			}
		}
	}
}

func runExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.ByID(id, benchScale, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTable(b, tables, metric)
}

// BenchmarkTable2Workloads regenerates Table 2 (workload write ratios).
func BenchmarkTable2Workloads(b *testing.B) {
	runExperiment(b, "table2", "write_pct")
}

// BenchmarkFig9TailLatency regenerates Fig. 9: P99.9 read/write latency
// across YCSB mixes for VDC, RackBlox (Software), and RackBlox.
func BenchmarkFig9TailLatency(b *testing.B) {
	runExperiment(b, "fig9", "value")
}

// BenchmarkFig10P99 regenerates Fig. 10: P99 latencies.
func BenchmarkFig10P99(b *testing.B) {
	runExperiment(b, "fig10", "value")
}

// BenchmarkFig11Avg regenerates Fig. 11: average latencies.
func BenchmarkFig11Avg(b *testing.B) {
	runExperiment(b, "fig11", "value")
}

// BenchmarkFig12Throughput regenerates Fig. 12: KIOPS across mixes.
func BenchmarkFig12Throughput(b *testing.B) {
	runExperiment(b, "fig12", "kiops")
}

// BenchmarkFig13Workloads regenerates Fig. 13: P99.9 latency for the five
// BenchBase workloads.
func BenchmarkFig13Workloads(b *testing.B) {
	runExperiment(b, "fig13", "value")
}

// BenchmarkFig14WorkloadThroughput regenerates Fig. 14.
func BenchmarkFig14WorkloadThroughput(b *testing.B) {
	runExperiment(b, "fig14", "kiops")
}

// BenchmarkFig15Breakdown regenerates Fig. 15: storage vs end-to-end
// P99.9, including the RackBlox-Coord I/O ablation.
func BenchmarkFig15Breakdown(b *testing.B) {
	runExperiment(b, "fig15", "total")
}

// BenchmarkFig16CDF regenerates Fig. 16: read-latency tail CDFs.
func BenchmarkFig16CDF(b *testing.B) {
	runExperiment(b, "fig16", "p99.9")
}

// BenchmarkFig17Schedulers regenerates Fig. 17: coordinated I/O under
// FIFO/Deadline/Kyber storage schedulers.
func BenchmarkFig17Schedulers(b *testing.B) {
	runExperiment(b, "fig17", "value")
}

// BenchmarkFig18NetSched regenerates Fig. 18: coordinated I/O under
// FQ/Priority/TB network schedulers.
func BenchmarkFig18NetSched(b *testing.B) {
	runExperiment(b, "fig18", "value")
}

// BenchmarkFig19DeviceGrid regenerates Fig. 19: YCSB-A read tails across
// the {Optane, Intel DC, P-SSD} x {Fast, Medium, Slow} grid.
func BenchmarkFig19DeviceGrid(b *testing.B) {
	runExperiment(b, "fig19", "p99.9")
}

// BenchmarkFig20Speedup regenerates Fig. 20: P99.9 read speedup vs VDC for
// YCSB-A/B/C across the device x network grid.
func BenchmarkFig20Speedup(b *testing.B) {
	runExperiment(b, "fig20", "speedup")
}

// BenchmarkFig21Isolation regenerates Fig. 21: software- vs
// hardware-isolated vSSD tails.
func BenchmarkFig21Isolation(b *testing.B) {
	runExperiment(b, "fig21", "p99.9")
}

// BenchmarkFig22LocalWear regenerates Fig. 22: per-server wear imbalance
// after one and two simulated years.
func BenchmarkFig22LocalWear(b *testing.B) {
	runExperiment(b, "fig22", "imbalance_max")
}

// BenchmarkFig23GlobalWear regenerates Fig. 23: rack-scale wear imbalance
// over 80 weeks for several swap periods.
func BenchmarkFig23GlobalWear(b *testing.B) {
	runExperiment(b, "fig23", "week80")
}

// BenchmarkPredictorAccuracy validates the §3.4 sliding-window predictor
// against all three network regimes.
func BenchmarkPredictorAccuracy(b *testing.B) {
	runExperiment(b, "predictor", "hit_rate")
}

// BenchmarkGCAblation measures the redirect-only vs redirect+delay design
// ablation called out in DESIGN.md.
func BenchmarkGCAblation(b *testing.B) {
	runExperiment(b, "gcablation", "value")
}

// BenchmarkDegradedReadPostRepair regenerates figrl, the recovery
// lifecycle sweep (fail -> repair -> re-integrate -> revive), and
// reports each phase's read latency relative to the healthy baseline.
// The regression guard is the vs_healthy series: post-repair and
// post-revival phases must stay near 1.0x (the 1.1x ceiling is asserted
// by TestFigRLLifecycleClosesLoop in internal/experiments), while the
// degraded and dark phases document the cost the lifecycle removes.
func BenchmarkDegradedReadPostRepair(b *testing.B) {
	runExperiment(b, "figrl", "vs_healthy")
}

// BenchmarkScenarioDriver regenerates figsc, the scenario-timeline
// cycle (fail -> revive-server -> catch-up -> fail-again), putting the
// cluster event driver's hot path — per-event crash/detection
// scheduling, catch-up repair re-targeting, RestoreStripeMember
// re-registration — on the benchmark trajectory. The vs_healthy series
// is the regression guard: post-catch-up and post-heal phases must stay
// near 1.0x (the 1.1x ceiling is asserted by TestFigSCCycleHealsTwice
// in internal/experiments).
func BenchmarkScenarioDriver(b *testing.B) {
	runExperiment(b, "figsc", "vs_healthy")
}

// BenchmarkRepairPacer regenerates figslo, the SLO-aware repair pacing
// comparison (healthy baseline, unpaced repair, paced repair on the
// figsc repeated-fault timeline over a scarce spine), putting the
// pacer's hot path — per-read window observations, AIMD ticks, token-
// lane wakeups, split repair claims — on the benchmark trajectory. The
// p99_ms series is the regression guard: the paced row must stay under
// slo_target_ms while unpaced blows far past it (asserted by
// TestFigSLOPacingHoldsSLO in internal/experiments).
func BenchmarkRepairPacer(b *testing.B) {
	runExperiment(b, "figslo", "p99_ms")
}

// BenchmarkSingleRackRun is the microbenchmark of one end-to-end rack run,
// useful for profiling the simulator itself.
func BenchmarkSingleRackRun(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Duration = 100 * 1_000_000 // 100ms of virtual time
	cfg.Warmup = 50 * 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
