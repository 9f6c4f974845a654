package core

import (
	"errors"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/stats"
)

// failConfig injects a crash of server 0 a third of the way into the run.
func failConfig() Config {
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 700 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 250*sim.Millisecond)}
	return cfg
}

func TestServerFailureFailsOver(t *testing.T) {
	res, err := Run(failConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("failure never detected")
	}
	if res.Switch.FailedOver == 0 {
		t.Fatal("switch never rewrote traffic for the dead server")
	}
	// Requests in flight to the dead server are bounded losses.
	if res.LostRequests == 0 {
		t.Error("no requests lost at the moment of the crash; suspicious")
	}
	if res.LostRequests > 200 {
		t.Errorf("%d requests lost; failover not containing the blast radius",
			res.LostRequests)
	}
	// Service continues: plenty of completions after the failure.
	if res.Recorder.Len() < 5000 {
		t.Errorf("only %d samples; rack did not keep serving", res.Recorder.Len())
	}
}

func TestServiceContinuesAfterFailure(t *testing.T) {
	res, err := Run(failConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Late samples (completing after detection) must exist and stay sane.
	late := 0
	for _, s := range stats.RawSamples(res.Recorder) {
		if s.Total > 0 && !s.Write {
			late++
		}
	}
	if late < 1000 {
		t.Fatalf("only %d read completions total", late)
	}
	if p := res.Recorder.Reads().P50(); p <= 0 || p > int64(50*sim.Millisecond) {
		t.Fatalf("post-failure read P50 = %d ns implausible", p)
	}
}

func TestNoFailureByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 0 || res.LostRequests != 0 {
		t.Fatalf("failovers=%d lost=%d without injection", res.Failovers, res.LostRequests)
	}
}

func TestFailureUnderVDCKeepsRunning(t *testing.T) {
	// VDC has no switch failover path in the paper; the simulation still
	// detects the failure and degrades replication so writes commit.
	cfg := failConfig()
	cfg.System = VDC
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() < 3000 {
		t.Fatalf("VDC stopped serving after failure: %d samples", res.Recorder.Len())
	}
}

// TestFailServersRejectsBadSpecs is the regression test for the typed
// failure-spec validation of a set of crashes at one instant: duplicate
// server ids used to be silently deduplicated (double-counting one crash
// against the redundancy budget), and out-of-range indices were silently
// ignored. Each bad spec must reach Run as a *FailureSpecError naming
// the Scenario field.
func TestFailServersRejectsBadSpecs(t *testing.T) {
	at := 50 * sim.Millisecond
	cases := []struct {
		name   string
		events []Event
	}{
		{"duplicate crash at one instant", []Event{
			FailServer(1, at), FailServer(2, at), FailServer(1, at)}},
		{"duplicate of the first crash", []Event{
			FailServer(0, at), FailServer(0, at)}},
		{"server out of range high", []Event{FailServer(99, at)}},
		{"server index at the server count", []Event{FailServer(64, at)}},
		{"negative server index", []Event{FailServer(-3, at)}},
		{"server inside a rack crashed at the same instant", []Event{
			FailRack(0, at), FailServer(1, at)}},
		{"rack out of range", []Event{FailRack(7, at)}},
		{"tor out of range", []Event{FailToR(7, at)}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Scenario = tc.events
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var spec *FailureSpecError
		if !errors.As(err, &spec) {
			t.Errorf("%s: err = %v, want *FailureSpecError", tc.name, err)
			continue
		}
		if spec.Field != "Scenario" {
			t.Errorf("%s: field = %q, want %q", tc.name, spec.Field, "Scenario")
		}
	}
	// Distinct in-range crashes at one instant stay accepted.
	cfg := DefaultConfig()
	cfg.Duration = 100 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, at), FailServer(1, at)}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("valid two-server spec rejected: %v", err)
	}
}

func TestFailureOfReplicaServerOnly(t *testing.T) {
	// Crash server 1, which hosts replicas of pair 0 and the primary of
	// pair 2 (round-robin placement) — both directions must fail over.
	cfg := failConfig()
	cfg.Scenario[0].Index = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("no failover for replica-hosting server")
	}
	if res.Recorder.Len() < 5000 {
		t.Fatalf("only %d samples", res.Recorder.Len())
	}
}
