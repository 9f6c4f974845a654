package core

import (
	"errors"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
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

// TestLostRequestSpansAreKept: a request the client gives up on ends
// its root span with status=lost and its retry count, and the flight
// recorder keeps it even when head sampling would drop it — one kept
// span per lost request. Tracing stays observer-only: the traced run
// loses exactly the requests the plain one does.
func TestLostRequestSpansAreKept(t *testing.T) {
	// Both ToRs of a two-rack RS(2,2) cluster go dark for good: every
	// erasure-coded request retries until it gives up.
	dark := DefaultConfig()
	dark.Racks, dark.StorageServers = 2, 3
	dark.Redundancy, dark.Placement = ErasureCode(2, 2), PlacementSpread
	dark.Warmup, dark.Duration = 20*sim.Millisecond, 300*sim.Millisecond
	dark.Scenario = []Event{FailToR(0, 60*sim.Millisecond), FailToR(1, 60*sim.Millisecond)}
	for name, cfg := range map[string]Config{
		"replicated":        failConfig(),
		"rs-both-tors-dark": dark,
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace = trace.Options{Enabled: true, SampleEvery: 1 << 30, TailKeep: 1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.LostReads == 0 || res.LostRequests != plain.LostRequests || res.Events != plain.Events {
				t.Fatalf("lost reads %d, lost requests %d (plain %d), events %d (plain %d)",
					res.LostReads, res.LostRequests, plain.LostRequests, res.Events, plain.Events)
			}
			var lost, retried int64
			for _, sp := range res.Trace.Spans {
				status, retries := "", int64(-1)
				for _, a := range sp.Attrs {
					switch a.Key {
					case "status":
						status = a.Str
					case "retries":
						retries = a.Int
					}
				}
				if status != "lost" {
					continue
				}
				lost++
				if retries < 0 {
					t.Fatalf("lost span %d carries no retry count", sp.Key)
				}
				if retries > 0 {
					retried++
				}
			}
			if lost != res.LostRequests {
				t.Fatalf("%d lost spans kept for %d lost requests", lost, res.LostRequests)
			}
			if cfg.Redundancy.erasure() && retried == 0 {
				t.Fatal("no lost erasure-coded request records its retries")
			}
		})
	}
}
