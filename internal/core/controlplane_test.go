package core

import (
	"testing"

	"rackblox/internal/sim"
)

// cpCase is one control-plane timeline: a config, a probe run on the
// live rack at probeAt, and a check of the finished run.
type cpCase struct {
	name    string
	cfg     func() Config
	probeAt sim.Time
	probe   func(t *testing.T, r *Rack)
	after   func(t *testing.T, r *Rack, res *Result)
}

// run builds the rack, arms the probe and runs it to completion.
func (tc cpCase) run(t *testing.T) {
	r, err := NewRack(tc.cfg())
	if err != nil {
		t.Fatal(err)
	}
	probed := false
	r.eng.At(tc.probeAt, func(sim.Time) {
		probed = true
		tc.probe(t, r)
	})
	res := r.Run()
	if !probed {
		t.Fatal("probe never ran")
	}
	tc.after(t, r, res)
}

// lostReadsSince records LostReads at the probe and returns a check
// that no read was lost after it: every read issued once the timeline's
// control-plane updates landed must complete.
func lostReadsSince() (probe func(*testing.T, *Rack), after func(*testing.T, *Rack, *Result)) {
	var at int64
	probe = func(_ *testing.T, r *Rack) { at = r.res.LostReads }
	after = func(t *testing.T, _ *Rack, res *Result) {
		if res.LostReads != at {
			t.Errorf("%d reads lost after the control plane settled (%d before)", res.LostReads-at, at)
		}
	}
	return probe, after
}

// replicated2x3 is the smallest multi-rack replicated cluster: two racks
// of three servers, four Hermes pairs on servers (0,1), (2,3), (4,5)
// and (0,1) — pair 1 spans the racks, pair 2 lives in rack 1.
func replicated2x3(duration sim.Time, events ...Event) Config {
	cfg := DefaultConfig()
	cfg.Racks, cfg.StorageServers = 2, 3
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = duration
	cfg.Scenario = events
	return cfg
}

// TestControlPlaneFailureTimelines drives the failure-handling control
// plane through the timelines that reach its less common branches — a
// ToR outage detected with replicated pairs homed under it, a revived
// ToR replaying pair rows and the failure-era stripe overlay (a replaced
// holder, a still-dead local member, a still-dead remote member), a
// server revived while its Hermes partner is still down, and the crash
// of a server holding another holder's rebuilt replacement — and checks
// what each must leave behind.
func TestControlPlaneFailureTimelines(t *testing.T) {
	for _, tc := range controlPlaneCases() {
		t.Run(tc.name, tc.run)
	}
}

// controlPlaneCases builds TestControlPlaneFailureTimelines' timelines;
// the golden Result hashes replay their configs too.
func controlPlaneCases() []cpCase {
	ms := sim.Millisecond
	var cases []cpCase

	// Server 0's repair completes near 1.1 s, rebuilding group 0's
	// holder 0 onto server 6. Then ToR 0 goes dark, and while it is dark
	// server 1 (a rack-0 holder of groups 0 and 1) and server 7 (a rack-1
	// holder of groups 0 and 1) crash. The revived ToR must replay the
	// replacement, fail the local dead members over, and mark exactly
	// the still-dead remote members.
	cases = append(cases, cpCase{
		name: "ec-tor-revival-overlay",
		cfg: func() Config {
			cfg := clusterConfig()
			cfg.Duration = 1800 * ms
			cfg.Scenario = []Event{
				FailServer(0, 100*ms),
				FailToR(0, 1200*ms),
				FailServer(1, 1250*ms),
				FailServer(7, 1300*ms),
				ReviveToR(0, 1500*ms),
			}
			return cfg
		},
		probeAt: 1500*ms + 1,
		probe: func(t *testing.T, r *Rack) {
			tor := r.tors[0]
			var replaced, localDead, remoteDead int
			for _, g := range r.groups {
				for i, m := range g.insts {
					repaired := g.chunks.Replacement(i) >= 0
					dead := !repaired && !m.server.reachable()
					switch {
					case repaired:
						replaced++
					case dead && m.server.rackIdx == 0:
						localDead++
					case dead:
						remoteDead++
					}
					if got, want := tor.RemoteDead(m.id), dead && m.server.rackIdx != 0; got != want {
						t.Errorf("group %d member %d (rack %d): revived ToR RemoteDead = %v, want %v",
							g.idx, i, m.server.rackIdx, got, want)
					}
				}
			}
			if replaced == 0 || localDead == 0 || remoteDead == 0 {
				t.Errorf("overlay not exercised: %d replaced, %d local dead, %d remote dead",
					replaced, localDead, remoteDead)
			}
		},
		after: func(t *testing.T, r *Rack, res *Result) {
			// Group 1 keeps k reachable chunks throughout, and group 0's
			// reads terminate even where they cannot decode: none is lost.
			if res.ToRRevivals != 1 || res.LostReads != 0 {
				t.Errorf("revivals=%d lost reads=%d, want 1 and 0", res.ToRRevivals, res.LostReads)
			}
		},
	})

	// Group 0's holder 0 is rebuilt onto server 6; then server 6 crashes,
	// taking both its own chunk and the replacement with it. Both holders
	// must be rebuilt again onto live servers, with no read lost.
	cases = append(cases, cpCase{
		name: "ec-crash-replacement-holder",
		cfg: func() Config {
			cfg := clusterConfig()
			cfg.Duration = 2600 * ms
			cfg.Scenario = []Event{FailServer(0, 100*ms), FailServer(6, 1300*ms)}
			return cfg
		},
		probeAt: 1300*ms - 1,
		probe: func(t *testing.T, r *Rack) {
			g := r.groups[0]
			if rp := g.chunks.Replacement(0); rp < 0 || g.insts[rp].server != r.servers[6] {
				t.Fatalf("group 0 holder 0 not rebuilt onto server 6 before its crash")
			}
		},
		after: func(t *testing.T, r *Rack, res *Result) {
			g := r.groups[0]
			for i, m := range g.insts {
				if m.server.reachable() {
					continue
				}
				if rp := g.chunks.Replacement(i); rp < 0 || !g.insts[rp].server.reachable() {
					t.Errorf("group 0 holder %d on a dead server has no live replacement", i)
				}
			}
			if res.RepairPending != 0 || res.UnrecoverableStripes != 0 || res.LostReads != 0 {
				t.Errorf("pending=%d unrecoverable stripes=%d lost reads=%d, want all 0",
					res.RepairPending, res.UnrecoverableStripes, res.LostReads)
			}
		},
	})

	// ToR 1 goes dark and is revived: pair 1's replica and pair 2 are
	// isolated, then reachable again. Once the revival's updates land, no
	// read may be lost.
	probe, after := lostReadsSince()
	cases = append(cases, cpCase{
		name: "replicated-tor-revival",
		cfg: func() Config {
			return replicated2x3(500*ms, FailToR(1, 100*ms), ReviveToR(1, 300*ms))
		},
		probeAt: 500 * ms,
		probe:   probe,
		after: func(t *testing.T, r *Rack, res *Result) {
			if res.Failovers == 0 || res.ToRRevivals != 1 {
				t.Fatalf("failovers=%d revivals=%d: the outage was not detected and healed",
					res.Failovers, res.ToRRevivals)
			}
			after(t, r, res)
		},
	})

	// While ToR 1 is dark, pair 1's replica server 3 crashes; the revived
	// ToR must keep routing it to its survivor (server 2). Then server 2
	// crashes too, and server 3 returns while its partner is still down:
	// it serves the pair alone, so pair 1's reads keep completing.
	probe2, after2 := lostReadsSince()
	cases = append(cases, cpCase{
		name: "replicated-revive-partner-down",
		cfg: func() Config {
			return replicated2x3(800*ms,
				FailToR(1, 100*ms),
				FailServer(3, 150*ms),
				ReviveToR(1, 300*ms),
				FailServer(2, 350*ms),
				ReviveServer(3, 450*ms))
		},
		probeAt: 650 * ms,
		probe:   probe2,
		after: func(t *testing.T, r *Rack, res *Result) {
			if got := len(r.insts[103].repl.Peers()); got != 1 {
				t.Errorf("revived vSSD 103 has %d Hermes peers with its partner down, want 1", got)
			}
			after2(t, r, res)
		},
	})

	return cases
}
