package switchsim

import (
	"testing"

	"rackblox/internal/packet"
)

// replay rebuilds a ToR's tables from scratch the way the control plane
// does after a revival: vSSD rows, the stripe table, then the
// failure-era overlays (failovers, remote-dead marks, replacements).
func (h *twoRackHarness) replay(j int, racks []int, overlay func(*Switch)) {
	tor := h.tors[j]
	tor.ResetTables()
	for i, id := range h.ids {
		peer := i ^ 1
		tor.InstallVSSD(id, h.hosts[i], h.ids[peer], h.hosts[peer])
	}
	tor.RegisterStripeMembers(h.ids, racks)
	if overlay != nil {
		overlay(tor)
	}
}

func TestReplaceStripeMemberServesDirect(t *testing.T) {
	h := newECHarness(t)
	// Member 0 dies, member 1 adopts; repair completes and member 1 is
	// re-registered as the replacement. Reads addressed to the dead id
	// must now be rewritten to member 1 and served directly — not as a
	// degraded redirect.
	h.sw.Failover(h.ids[0], h.ids[1])
	h.sw.ReplaceStripeMember(h.ids[0], h.ids[1])
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 3})
	if len(out) != 1 || out[0].VSSD != h.ids[1] || out[0].DstIP != h.hosts[1] {
		t.Fatalf("read for repaired member not served by replacement: %+v", out)
	}
	st := h.sw.Stats()
	if st.DegradedRedirects != 0 || st.FailedOver != 0 {
		t.Fatalf("post-repair read still degraded: %+v", st)
	}
	if st.Reintegrated == 0 {
		t.Fatal("replacement rewrite not counted")
	}
	if r := h.sw.get(h.ids[0]); !r.replaced || r.replacedBy != h.ids[1] {
		t.Fatalf("replacement alias = %d,%v", r.replacedBy, r.replaced)
	}
}

func TestReplaceStripeMemberRewritesWrites(t *testing.T) {
	h := newECHarness(t)
	h.sw.Failover(h.ids[2], h.ids[3])
	h.sw.ReplaceStripeMember(h.ids[2], h.ids[3])
	out := h.send(packet.Packet{Op: packet.OpWrite, VSSD: h.ids[2], DstIP: h.hosts[2], LPN: 7})
	if len(out) != 1 || out[0].VSSD != h.ids[3] || out[0].DstIP != h.hosts[3] {
		t.Fatalf("write for repaired member not rewritten: %+v", out)
	}
	if h.sw.Stats().FailedOver != 0 {
		t.Fatal("write took the failover path after re-integration")
	}
}

func TestReplaceStripeMemberClearsFailureState(t *testing.T) {
	h := newECHarness(t)
	h.sw.Failover(h.ids[0], h.ids[1])
	h.sw.MarkRemoteDead(h.ids[0])
	h.sw.ReplaceStripeMember(h.ids[0], h.ids[1])
	if h.sw.RemoteDead(h.ids[0]) {
		t.Fatal("remote-dead mark survived re-integration")
	}
	for _, id := range h.sw.get(h.ids[1]).group {
		if id == h.ids[0] {
			t.Fatal("dead member still listed in the stripe table")
		}
	}
}

func TestReplaceStripeMemberIgnoresUnknownIDs(t *testing.T) {
	h := newECHarness(t)
	h.sw.ReplaceStripeMember(999, h.ids[1])      // old never registered
	h.sw.ReplaceStripeMember(h.ids[0], 999)      // replacement unknown
	h.sw.ReplaceStripeMember(h.ids[0], h.ids[0]) // self-replacement
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 1})
	if len(out) != 1 || out[0].VSSD != h.ids[0] {
		t.Fatalf("no-op replacements changed routing: %+v", out)
	}
}

// TestToRRevivalTable drives the revival edge cases of the recovery
// lifecycle at the switch level: ResetTables plus the control-plane
// replay must restore correct routing in every scenario.
func TestToRRevivalTable(t *testing.T) {
	racks := []int{0, 0, 1, 1}
	cases := []struct {
		name string
		run  func(t *testing.T, h *twoRackHarness)
	}{
		{"revive with no failures", func(t *testing.T, h *twoRackHarness) {
			// A spurious down/up cycle with replay must leave routing
			// exactly as before: healthy reads stay local and direct.
			h.tors[0].SetDown(true)
			h.tors[0].SetDown(false)
			h.replay(0, racks, nil)
			h.send(0, packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 2})
			if len(h.out[0]) != 1 || h.out[0][0].VSSD != h.ids[0] {
				t.Fatalf("healthy read misrouted after spurious revival: %+v", h.out[0])
			}
		}},
		{"revive while sibling handoffs are in flight", func(t *testing.T, h *twoRackHarness) {
			// Rack 0 members are dead; ToR 1 went dark and revives while
			// a handed-off read from ToR 0 is still queued. The revived
			// table must route the arriving handoff to a rack-1 member.
			h.tors[0].Failover(h.ids[0], h.ids[2])
			h.tors[0].Failover(h.ids[1], h.ids[2])
			h.tors[1].SetDown(true)
			h.tors[0].Process(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 5})
			// The handoff is enqueued synchronously by tors[0]; revive
			// the destination before the engine drains it.
			h.tors[1].SetDown(false)
			h.replay(1, racks, nil)
			h.eng.Run()
			if len(h.out[1]) != 1 {
				t.Fatalf("rack 1 forwarded %d packets after revival, want 1", len(h.out[1]))
			}
			if got := h.out[1][0].VSSD; got != h.ids[2] && got != h.ids[3] {
				t.Fatalf("handoff after revival routed to %d", got)
			}
		}},
		{"double revive is idempotent", func(t *testing.T, h *twoRackHarness) {
			h.tors[0].Failover(h.ids[0], h.ids[1])
			overlay := func(s *Switch) { s.ReplaceStripeMember(h.ids[0], h.ids[1]) }
			h.replay(0, racks, overlay)
			h.replay(0, racks, overlay) // second replay must change nothing
			h.send(0, packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 4})
			if len(h.out[0]) != 1 || h.out[0][0].VSSD != h.ids[1] {
				t.Fatalf("double revival broke replacement routing: %+v", h.out[0])
			}
		}},
		{"handoff TTL exhausted after revival", func(t *testing.T, h *twoRackHarness) {
			// Every member everywhere is failed over; a revived ToR must
			// still honor the packet TTL and not restart the ping-pong.
			for j := 0; j < 2; j++ {
				for _, id := range h.ids {
					h.tors[j].Failover(id, id)
				}
			}
			h.replay(1, racks, func(s *Switch) {
				for _, id := range h.ids {
					s.Failover(id, id)
				}
			})
			h.send(0, packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0],
				LPN: 1, Handoffs: maxHandoffs})
			if hs := h.tors[0].Stats().Handoffs + h.tors[1].Stats().Handoffs; hs != 0 {
				t.Fatalf("TTL-expired packet handed off %d times after revival", hs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newTwoRackHarness(t))
		})
	}
}
