package experiments

import (
	"rackblox/internal/core"
	"rackblox/internal/sim"
)

// figRA compares repair traffic across code families at fixed
// durability on figslo's cluster and scarce spine (sloConfig): RS(4,2)
// against LRC(4,2) — the same global code plus one local parity chunk
// per rack. Both tolerate any m=2 global losses (the LRC side also
// rides out one extra loss per rack); what changes is what repair costs
// the spine. Each family runs under a
// single-server crash and a whole-rack crash, both SLO-paced with one
// shared target so completion times are comparable. The rack-aware
// claims are three columns: cross_repair_mb is zero for LRC under a
// single-server loss (the rack-local XOR plan never touches the spine,
// where RS must fetch k chunks per stripe, most from remote racks);
// under the rack crash cross_chunks_per_stripe stays below k for both —
// RS because it reads the adopter's own rack first and ships only the
// rest, LRC because each remote rack aggregates its survivors into one
// shipped chunk (RS never aggregates: its agg_repair is 0) — but LRC
// ships strictly fewer chunks than RS; and repair_done_ms improves under the same RepairSLO because
// token-free local batches and smaller spine batches drain the queue
// sooner. unrecov_stripes is zero everywhere: neither scenario exceeds
// either family's durability.
func figRA(r runner, scale Scale) []*Table {
	t := &Table{ID: "FigRA",
		Title: "Repair-efficient rack-aware codes: spine bytes and completion vs code family",
		Cols: []string{"read_p99_ms", "slo_target_ms", "repair_done_ms", "repaired",
			"pending", "cross_repair_mb", "cross_chunks_per_stripe", "local_repair",
			"agg_repair", "local_degraded", "degraded", "lost_reads", "unrecov_stripes"}}

	families := []core.RedundancySpec{
		core.ErasureCode(4, 2),
		core.LocalParityCode(4, 2),
	}
	run := func(spec core.RedundancySpec, series string, slo core.RepairSLO, events []core.Event) *core.Result {
		cfg := sloConfig(scale, r.opt)
		cfg.Redundancy = spec
		cfg.RepairSLO = slo
		cfg.Scenario = events
		return r.run(spec.String()+"/"+series, cfg)
	}

	// One shared SLO target for every paced run, derived from the RS
	// healthy baseline unless the caller fixed one: completion times are
	// only comparable under the same foreground-latency budget.
	target := r.opt.RepairSLOTarget
	if target <= 0 {
		healthy := run(families[0], "healthy", core.RepairSLO{}, nil)
		target = sim.Time(float64(healthy.Recorder.Reads().P99()) * sloTargetFactor)
	}
	slo := core.RepairSLO{TargetP99: target}

	scenarios := []struct {
		x      string
		events []core.Event
	}{
		{"server 0 crash", []core.Event{core.FailServer(0, scFailAt)}},
		{"rack 0 crash", []core.Event{core.FailRack(0, scFailAt)}},
	}
	for _, spec := range families {
		for _, sc := range scenarios {
			v := pick(run(spec, sc.x, slo, sc.events), t.Cols)
			v["slo_target_ms"] = ms(target)
			t.Rows = append(t.Rows, Row{Series: spec.String(), X: sc.x, Values: v})
		}
	}
	return []*Table{t}
}
