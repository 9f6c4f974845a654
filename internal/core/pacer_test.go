package core

import (
	"math/rand"
	"testing"

	"rackblox/internal/sim"
)

// TestPacedRepairAlwaysCompletes is the pacer's no-starvation property
// test: for random SLO targets (including absurdly tight ones the
// controller can never satisfy), random rate bounds, sensor windows and
// tick intervals, and random fail/revive/fail-again timelines, repair
// always drains — the MinRateMBps floor guarantees progress no matter
// how hard the AIMD loop backs off — and the spine byte counters
// reconcile exactly once the run has drained.
func TestPacedRepairAlwaysCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		cfg := recoveryConfig()
		cfg.Seed = int64(1000 + i)
		cfg.Duration = 300 * sim.Millisecond
		cfg.CrossRackMBps = 40 + rng.Float64()*160
		min := 0.5 + rng.Float64()*3.5
		cfg.RepairSLO = RepairSLO{
			// 0.1ms..20ms: the low end is tighter than any read the
			// cluster can serve, pinning the rate at the floor.
			TargetP99:   sim.Time(100+rng.Intn(20_000)) * sim.Microsecond,
			MinRateMBps: min,
			MaxRateMBps: min + rng.Float64()*100,
			Window:      32 + rng.Intn(256),
			Interval:    sim.Time(1+rng.Intn(5)) * sim.Millisecond,
		}

		// Every server hosts exactly one chunk holder here (3 groups x 6
		// members over 18 servers), so any crash queues repair work.
		victim := rng.Intn(cfg.totalServers())
		failAt := sim.Time(60+rng.Intn(60)) * sim.Millisecond
		reviveAt := failAt + sim.Time(120+rng.Intn(80))*sim.Millisecond
		events := []Event{FailServer(victim, failAt)}
		switch rng.Intn(3) {
		case 1:
			events = append(events, ReviveServer(victim, reviveAt))
		case 2:
			events = append(events, ReviveServer(victim, reviveAt),
				FailServer(victim, reviveAt+60*sim.Millisecond))
		}
		cfg.Scenario = events

		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.RepairPending != 0 {
			t.Errorf("case %d (slo %+v, events %v): %d repair tasks starved",
				i, cfg.RepairSLO, events, res.RepairPending)
		}
		if res.RepairedStripes == 0 {
			t.Errorf("case %d: crash of server %d repaired no stripes", i, victim)
		}
		if res.RepairCompletionTime <= 0 {
			t.Errorf("case %d: repair completion time %d, want a finite instant",
				i, res.RepairCompletionTime)
		}
		if res.CrossRackRepairBytes != res.CrossRackRepairBytesOffered {
			t.Errorf("case %d: drained run left repair bytes unreconciled: delivered %d offered %d",
				i, res.CrossRackRepairBytes, res.CrossRackRepairBytesOffered)
		}
		if res.ForegroundCrossRackBytes != res.ForegroundCrossRackBytesOffered {
			t.Errorf("case %d: drained run left foreground bytes unreconciled: delivered %d offered %d",
				i, res.ForegroundCrossRackBytes, res.ForegroundCrossRackBytesOffered)
		}
		if f := res.SLOViolationFraction; f < 0 || f > 1 {
			t.Errorf("case %d: violation fraction %f outside [0,1]", i, f)
		}
		if len(res.RepairRateTimeline) == 0 {
			t.Errorf("case %d: empty rate timeline with pacing enabled", i)
		}
		for _, pt := range res.RepairRateTimeline {
			if pt.MBps < cfg.RepairSLO.MinRateMBps-1e-9 || pt.MBps > cfg.RepairSLO.MaxRateMBps+1e-9 {
				t.Errorf("case %d: rate %f escaped bounds [%f, %f]",
					i, pt.MBps, cfg.RepairSLO.MinRateMBps, cfg.RepairSLO.MaxRateMBps)
			}
		}
	}
}

// TestSpineByteCountersReconcileMidRun is the regression test for the
// enqueue-time byte accounting bug (sim.Bandwidth counted bytes at
// Transfer time): stopping the engine mid-run must show delivered <=
// offered — strictly less while a repair batch is on the wire — and
// draining the engine reconciles the two exactly.
func TestSpineByteCountersReconcileMidRun(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Duration = 200 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 60*sim.Millisecond)}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the run by hand so the clock can stop mid-transfer.
	r.start()

	s := r.spine
	sawInFlight := false
	for now := 60 * sim.Millisecond; now <= 500*sim.Millisecond; now += sim.Millisecond {
		r.eng.RunUntil(now)
		if s.crossRepairBytes > s.crossRepairOffered {
			t.Fatalf("at %d: repair delivered %d > offered %d",
				now, s.crossRepairBytes, s.crossRepairOffered)
		}
		if s.foregroundBytes > s.foregroundOffered {
			t.Fatalf("at %d: foreground delivered %d > offered %d",
				now, s.foregroundBytes, s.foregroundOffered)
		}
		if s.crossRepairBytes < s.crossRepairOffered {
			sawInFlight = true
			break
		}
	}
	if !sawInFlight {
		t.Error("never observed a repair transfer in flight; the regression scenario is dead")
	}
	if s.crossRepairOffered == 0 {
		t.Fatal("the crash queued no cross-rack repair traffic")
	}

	r.eng.Run() // drain
	if s.crossRepairBytes != s.crossRepairOffered {
		t.Errorf("drained repair bytes unreconciled: delivered %d offered %d",
			s.crossRepairBytes, s.crossRepairOffered)
	}
	if s.foregroundBytes != s.foregroundOffered {
		t.Errorf("drained foreground bytes unreconciled: delivered %d offered %d",
			s.foregroundBytes, s.foregroundOffered)
	}
	if s.crossRepairBytes == 0 || s.foregroundBytes == 0 {
		t.Errorf("spine moved no bytes: repair %d foreground %d",
			s.crossRepairBytes, s.foregroundBytes)
	}
}

// runBounded runs r like Run but fails t if an event is still pending
// past horizon simulated: every run must drain.
func runBounded(t *testing.T, r *Rack, horizon sim.Time) *Result {
	t.Helper()
	r.start()
	for r.eng.Step() {
		if r.eng.Now() > horizon {
			t.Fatalf("%d events still pending at %v simulated: the run never drains",
				r.eng.Pending()+1, r.eng.Now())
		}
	}
	return r.result()
}

// TestPacedRunDrainsWithNoReachableMember is the regression test for a
// paced run that never ended: two rack crashes and two dark ToRs leave
// every member of a group unreachable while its repair is queued, so
// runRepairTask finds no adopter and leaves the tasks queued with no
// pump armed. The pacer counted those tasks as active repair and
// re-armed its tick forever.
func TestPacedRunDrainsWithNoReachableMember(t *testing.T) {
	cfg := lrcConfig()
	cfg.CrossRackMBps = 80
	cfg.RepairSLO = RepairSLO{TargetP99: 6400 * sim.Microsecond}
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Duration = 200 * sim.Millisecond
	cfg.Seed = 66
	cfg.Scenario = []Event{
		FailRack(0, 61*sim.Millisecond),
		FailToR(1, 74*sim.Millisecond),
		FailRack(2, 133*sim.Millisecond),
		FailToR(2, 145*sim.Millisecond),
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runBounded(t, r, 5*sim.Second)
	if res.RepairPending == 0 {
		t.Error("no repair task was left queued; the dead-end scenario is gone")
	}
}
