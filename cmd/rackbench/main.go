// Command rackbench regenerates the tables and figures of the RackBlox
// evaluation (§4) on the simulated rack and prints them in paper order.
//
// Usage:
//
//	rackbench -list
//	rackbench -exp fig9
//	rackbench -exp all -scale 1.0
//	rackbench -redundancy rs4,2 -scale 0.5
//	rackbench -exp figec -json auto
//	rackbench -exp figmr -racks 4 -crossbw 100 -json auto
//	rackbench -exp figrl -json auto
//	rackbench -exp figsc -json auto
//	rackbench -exp figslo -repair-slo 5ms
//	rackbench -exp figra -json auto
//	rackbench -redundancy lrc4,2
//	rackbench -scenario "failrack:0@300ms,revive-server:2@600ms"
//	rackbench -scenario "fail-server:0@120ms" -repair-slo 4ms
//
// Scale < 1 shrinks the measured window proportionally (useful for quick
// looks); 1.0 runs the full-length windows. BENCH_all.json records every
// experiment's tables at scale 0.25 (rackbench -exp all -scale 0.25
// -json auto), and TestBenchTablesUnchanged checks them against it.
//
// -redundancy runs a single YCSB 50/50 summary with the chosen backend
// ("replication", "rsK,M" like rs4,2, or "lrcK,M" like lrc4,2 — the
// local-parity family, which runs on a three-rack spread cluster)
// instead of a paper experiment.
// -racks and -crossbw tune the cluster experiments (figmr, figrl, figsc,
// figslo, figra) and -scenario runs: the rack fault-domain count (at
// least 3, which spread RS(4,2) needs; smaller values are raised) and the
// spine bandwidth in MB/s that cross-rack repair and foreground traffic
// are metered on. figrl
// sweeps the recovery lifecycle — fail, repair, re-integrate, revive —
// and reports each phase's read latency against the healthy baseline
// (vs_healthy), with foreground spine bytes (fg_cross_mb) separate from
// repair bytes (repair_cross_mb). figsc sweeps a scenario-timeline cycle
// — fail, revive-server, catch-up, fail-again — on the same cluster.
//
// -scenario runs one lifecycle cluster under a custom fault/recovery
// timeline (core.Config.Scenario) instead of a paper experiment: comma-
// separated <kind>:<index>@<time> events with kinds fail-server,
// fail-rack, fail-tor, revive-server, revive-tor. Malformed specs and
// invalid timelines (revive-before-fail, double crashes) exit with a
// usage error, and so does combining -scenario with -redundancy: the
// lifecycle cluster fixes its own code family.
// -repair-slo sets the foreground read p99 target of the SLO-aware
// repair pacer (core.Config.RepairSLO): figslo uses it in place of its
// auto-derived target, and -scenario runs gain a paced repair lane; the
// figslo experiment compares pacing off vs on on the figsc repeated-
// fault timeline and reports the repair-time vs foreground-latency
// trade-off. figra compares code families at fixed durability on the
// same scarce spine — RS(4,2) against LRC(4,2), which adds one local
// parity chunk per rack: single-server losses repair inside the rack
// with zero spine bytes, and multi-loss repair ships one aggregated
// chunk per remote rack instead of k raw chunks, finishing sooner under
// the same -repair-slo target.
// -json FILE writes every produced table as machine-readable JSON
// ("auto" derives a BENCH_<exp>.json name), so successive runs can be
// diffed to track the performance trajectory. The report carries a
// schema_version and one record per simulated run of every experiment —
// paper figures, cluster experiments, -redundancy and -scenario alike —
// with the engine's per-handler event counters, the repair-rate
// timeline, sampled metrics, and the p99 tail attribution. table2,
// fig22, fig23 and predictor simulate no rack and record no run.
//
// -trace FILE turns on the flight recorder for every simulated run and
// writes the last run's spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing; -trace-sample N keeps
// one request in N by key hash (the slowest reads are always kept).
// -metrics FILE samples time-series metrics (spine utilization, repair
// rate and backlog, windowed read p50/p99, GC and degraded-read
// activity, per-rack request rates) every millisecond of virtual time
// and writes the last run's series as CSV. Both are observer-only: the
// tabulated numbers are byte-identical with or without them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rackblox/internal/core"
	"rackblox/internal/experiments"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
)

// benchSchemaVersion identifies the -json layout: bump it whenever a
// field changes meaning so trajectory diffs never compare across
// incompatible shapes. Version 2 added schema_version itself, the runs
// records, and the repair-rate timeline.
const benchSchemaVersion = 2

// runRecord is one simulated run inside the -json report.
type runRecord struct {
	Experiment         string             `json:"experiment"`
	Series             string             `json:"series"`
	Events             uint64             `json:"events"`
	EventsByHandler    map[string]uint64  `json:"events_by_handler,omitempty"`
	RepairRateTimeline []core.RatePoint   `json:"repair_rate_timeline,omitempty"`
	Timelines          *stats.TimeSeries  `json:"timelines,omitempty"`
	TailAttribution    []trace.PhaseShare `json:"tail_attribution,omitempty"`
}

// benchReport is the -json file layout.
type benchReport struct {
	SchemaVersion int                  `json:"schema_version"`
	Experiments   []string             `json:"experiments"`
	Scale         float64              `json:"scale"`
	Redundancy    string               `json:"redundancy,omitempty"`
	Scenario      string               `json:"scenario,omitempty"`
	Tables        []*experiments.Table `json:"tables"`
	Runs          []runRecord          `json:"runs,omitempty"`
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale       = flag.Float64("scale", 1.0, "measured-window scale in (0,1]")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		redundancy  = flag.String("redundancy", "", "run one YCSB summary with this backend: 'replication', 'rsK,M' (e.g. rs4,2), or 'lrcK,M' (e.g. lrc4,2)")
		scenario    = flag.String("scenario", "", "run one lifecycle cluster under this fault/recovery timeline: comma-separated <kind>:<index>@<time> events (e.g. 'failrack:0@300ms,revive-server:2@600ms')")
		jsonOut     = flag.String("json", "", "write results as JSON to this file ('auto' derives BENCH_<exp>.json)")
		racks       = flag.Int("racks", 0, "rack fault-domain count for the cluster experiments (figmr, figrl, figsc, figslo, figra) and -scenario; values below 3, the minimum for spread RS(4,2), are raised to 3")
		crossbw     = flag.Float64("crossbw", 0, "cross-rack spine bandwidth in MB/s for the cluster experiments and -scenario (0 = experiment default)")
		repairSLO   = flag.Duration("repair-slo", 0, "foreground read p99 SLO target for repair pacing, as a Go duration (e.g. 5ms): overrides figslo's auto-derived target and enables the pacer for -scenario runs (0 = figslo auto-derives, -scenario runs unpaced)")
		traceOut    = flag.String("trace", "", "enable the flight recorder and write the last instrumented run's spans as Chrome trace-event JSON to this file (load in Perfetto)")
		traceSample = flag.Int("trace-sample", 0, "head-sampling rate for -trace: keep one request in N by key hash (0 = default 16; slowest reads are always kept)")
		metricsOut  = flag.String("metrics", "", "sample time-series metrics every 1ms of virtual time and write the last instrumented run's series as CSV to this file")
	)
	flag.Parse()
	opt := experiments.Options{Racks: *racks, CrossBWMBps: *crossbw,
		RepairSLOTarget: repairSLO.Nanoseconds()}
	if *traceOut != "" {
		opt.Trace = trace.Options{Enabled: true, SampleEvery: *traceSample}
	}
	if *metricsOut != "" {
		opt.MetricsInterval = sim.Millisecond
	}
	// Every simulated run lands one record in the -json report; the
	// last run's artifacts back the -trace and -metrics files (for
	// figslo that is the paced run — the one worth staring at).
	var runs []runRecord
	var lastTrace *trace.Trace
	var lastMetrics *stats.TimeSeries
	opt.OnResult = func(id, series string, res *core.Result) {
		runs = append(runs, runRecord{
			Experiment:         id,
			Series:             series,
			Events:             res.Events,
			EventsByHandler:    res.EventsByHandler,
			RepairRateTimeline: res.RepairRateTimeline,
			Timelines:          res.Timelines,
			TailAttribution:    res.TailAttribution,
		})
		if res.Trace != nil {
			lastTrace = res.Trace
		}
		if res.Timelines != nil {
			lastMetrics = res.Timelines
		}
	}

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.All() {
			fmt.Println("  " + id)
		}
		return
	}

	var tables []*experiments.Table
	var ids []string
	if *scenario != "" && *redundancy != "" {
		fmt.Fprintln(os.Stderr, "rackbench: -scenario and -redundancy cannot be combined: the -scenario cluster runs its own code family, so -redundancy would be ignored")
		os.Exit(2)
	}
	if *scenario != "" {
		events, err := parseScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(2)
		}
		ids = []string{"scenario"}
		t, err := experiments.ScenarioSummary(events, experiments.Scale(*scale), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(2)
		}
		tables = append(tables, t)
		fmt.Println(t.Format())
	} else if *redundancy != "" {
		spec, err := parseRedundancy(*redundancy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(1)
		}
		ids = []string{"redundancy"}
		t, err := experiments.RedundancySummary(spec, experiments.Scale(*scale), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(1)
		}
		tables = append(tables, t)
		fmt.Println(t.Format())
	} else {
		ids = experiments.All()
		if *exp != "all" {
			ids = strings.Split(*exp, ",")
		}
		for _, id := range ids {
			start := time.Now()
			ts, err := experiments.ByID(strings.TrimSpace(id), experiments.Scale(*scale), opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rackbench:", err)
				os.Exit(1)
			}
			for _, t := range ts {
				fmt.Println(t.Format())
			}
			tables = append(tables, ts...)
			fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}

	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			name := *exp
			if *redundancy != "" {
				name = "redundancy"
			}
			if *scenario != "" {
				name = "scenario"
			}
			path = fmt.Sprintf("BENCH_%s.json", strings.ReplaceAll(name, ",", "_"))
		}
		if err := writeJSON(path, benchReport{
			SchemaVersion: benchSchemaVersion,
			Experiments:   ids,
			Scale:         *scale,
			Redundancy:    *redundancy,
			Scenario:      *scenario,
			Tables:        tables,
			Runs:          runs,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	if *traceOut != "" {
		if lastTrace == nil {
			fmt.Fprintln(os.Stderr, "rackbench: -trace: no run produced a trace: the selected experiments simulate no rack")
			os.Exit(1)
		}
		if err := writeArtifact(*traceOut, lastTrace.WriteChromeTrace); err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if lastMetrics == nil {
			fmt.Fprintln(os.Stderr, "rackbench: -metrics: no run sampled metrics: the selected experiments simulate no rack")
			os.Exit(1)
		}
		if err := writeArtifact(*metricsOut, lastMetrics.WriteCSV); err != nil {
			fmt.Fprintln(os.Stderr, "rackbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
}

// writeArtifact streams one exporter's output to a file.
func writeArtifact(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseRedundancy accepts "replication", "rsK,M" (e.g. "rs4,2"), or
// "lrcK,M" (e.g. "lrc4,2" — RS(k,m) globals plus one local parity chunk
// per rack).
func parseRedundancy(s string) (core.RedundancySpec, error) {
	switch {
	case s == "replication":
		return core.Replication(), nil
	case strings.HasPrefix(s, "lrc"):
		var k, m int
		if _, err := fmt.Sscanf(s[3:], "%d,%d", &k, &m); err != nil {
			return core.RedundancySpec{}, fmt.Errorf("bad -redundancy %q: want lrcK,M like lrc4,2", s)
		}
		return core.LocalParityCode(k, m), nil
	case strings.HasPrefix(s, "rs"):
		var k, m int
		if _, err := fmt.Sscanf(s[2:], "%d,%d", &k, &m); err != nil {
			return core.RedundancySpec{}, fmt.Errorf("bad -redundancy %q: want rsK,M like rs4,2", s)
		}
		return core.ErasureCode(k, m), nil
	}
	return core.RedundancySpec{}, fmt.Errorf("bad -redundancy %q: want 'replication', 'rsK,M', or 'lrcK,M'", s)
}

func writeJSON(path string, report benchReport) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
