package main

import (
	"fmt"

	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// workload is one named benchmark input. A run of it is a batch of
// independent simulations (sub-runs), each seeded from the workload seed,
// so one run measures enough requests for a stable tail.
type workload struct {
	name string
	// subRunHostSeconds is the host time one sub-run took on the
	// reference host (2-CPU Xeon, Go 1.24); it only sizes the batch to
	// the requested measuring time, so a faster simulator finishes early
	// instead of simulating more.
	subRunHostSeconds float64
	config            func(seed int64) core.Config
}

var workloads = []workload{
	{
		// The paper's single-rack testbed on the read-dominated YCSB mix:
		// the foreground datapath with little GC, where an engine or
		// datapath speed-up shows.
		name:              "ycsb-read",
		subRunHostSeconds: 0.9,
		config: func(seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Workload.WriteFrac = 0.05
			cfg.Duration = 8 * sim.Second
			return cfg
		},
	},
	{
		// The same rack under Twitter (97.86% writes, Table 2): FTL GC,
		// coordinated-GC redirection and Hermes replication carry the
		// work beside the read path.
		name:              "gc-storm",
		subRunHostSeconds: 0.85,
		config: func(seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Workload = core.WorkloadSpec{Name: "Twitter", MeanGap: cfg.Workload.MeanGap}
			cfg.Duration = 4 * sim.Second
			return cfg
		},
	},
	{
		// Three racks of six under LRC(4,2) on a scarce 80 MB/s spine,
		// SLO-paced: a server crash (rack-local XOR repair), its revival
		// (catch-up) and a whole-rack crash (aggregated cross-rack
		// repair). The only workload that drives ec, the pacer, the
		// spine and failover.
		name:              "rack-repair",
		subRunHostSeconds: 0.2,
		config: func(seed int64) core.Config {
			const failAt = 120 * sim.Millisecond
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Racks = 3
			cfg.StorageServers = 6
			cfg.VSSDPairs = 3
			cfg.Redundancy = core.LocalParityCode(4, 2)
			cfg.Placement = core.PlacementSpread
			cfg.CrossRackMBps = 80
			cfg.Device = flash.ProfileOptane()
			cfg.KeyspaceFrac = 0.25
			cfg.MaxClientInflight = 256
			cfg.Workload.WriteFrac = 0.2
			cfg.Workload.MeanGap = 400 * sim.Microsecond
			// The SLO target figra derives from the healthy RS(4,2)
			// baseline, fixed here so every run paces alike.
			cfg.RepairSLO = core.RepairSLO{TargetP99: 6400 * sim.Microsecond}
			cfg.Warmup = failAt
			cfg.Duration = 930 * sim.Millisecond
			cfg.Scenario = []core.Event{
				core.FailServer(0, failAt),
				core.ReviveServer(0, 300*sim.Millisecond),
				core.FailRack(0, 650*sim.Millisecond),
			}
			return cfg
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subRuns is the batch size for a run measuring about seconds of host
// time. It depends only on seconds, so a run's simulated metrics repeat
// exactly for a fixed seed whatever the host speed.
func (w workload) subRuns(seconds float64) int {
	n := int(seconds/w.subRunHostSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// subSeed derives the seed of sub-run i from the workload seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }
