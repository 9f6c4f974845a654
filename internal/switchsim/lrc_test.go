package switchsim

import (
	"testing"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// lrcHarness registers an LRC-shaped stripe group on one rack's ToR:
// nine members spanning three racks — six global chunk holders (two per
// rack) followed by one local parity holder per rack — of which rack 0's
// three members are local. The stripe table treats local parity holders
// as ordinary members: they are registered, steered to, replaced, and
// consulted for GC staggering exactly like global holders.
type lrcHarness struct {
	eng   *sim.Engine
	sw    *Switch
	out   []packet.Packet
	ids   []uint32
	hosts []uint32
	racks []int
}

func newLRCHarness(t *testing.T) *lrcHarness {
	t.Helper()
	h := &lrcHarness{eng: sim.NewEngine()}
	h.sw = New(h.eng, nil, func(p packet.Packet) { h.out = append(h.out, p) })
	// Globals 0..5 two per rack, then local parities 6..8 one per rack.
	h.racks = []int{0, 0, 1, 1, 2, 2, 0, 1, 2}
	for i := range h.racks {
		h.ids = append(h.ids, uint32(300+i))
		h.hosts = append(h.hosts, uint32(0x0A000030+i))
	}
	for i, id := range h.ids {
		if h.racks[i] != 0 {
			continue // remote members register with their own ToR
		}
		h.sw.Process(packet.Packet{
			Op: packet.OpCreateVSSD, VSSD: id, SrcIP: h.hosts[i],
			ReplicaVSSD: id, ReplicaIP: h.hosts[i],
		})
	}
	h.sw.RegisterStripeMembers(h.ids, h.racks)
	h.eng.Run()
	return h
}

func (h *lrcHarness) send(p packet.Packet) []packet.Packet {
	h.out = nil
	h.sw.Process(p)
	h.eng.Run()
	return h.out
}

// TestLRCLocalParityServesDegradedRead steers a degraded read onto the
// rack's local parity holder when it is the only healthy local member —
// the coordinator of the zero-spine local-XOR reconstruction.
func TestLRCLocalParityServesDegradedRead(t *testing.T) {
	h := newLRCHarness(t)
	// Global member 0 collects and global member 1 has failed: the local
	// parity holder (index 6) is the last healthy member in rack 0.
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: h.ids[0], SrcIP: h.hosts[0]})
	h.sw.Failover(h.ids[1], h.ids[0])
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 3})
	if len(out) != 1 {
		t.Fatalf("forwarded %d packets, want 1", len(out))
	}
	if out[0].VSSD != h.ids[6] || out[0].DstIP != h.hosts[6] {
		t.Fatalf("read went to vssd %d, want the local parity holder %d", out[0].VSSD, h.ids[6])
	}
	if h.sw.Stats().DegradedRedirects != 1 {
		t.Fatalf("DegradedRedirects = %d, want 1", h.sw.Stats().DegradedRedirects)
	}
	if h.sw.Stats().Handoffs != 0 {
		t.Fatal("rack-local degraded read left over the spine")
	}
}

// TestLRCLocalParityStaggersGC asserts the rack-aware GC staggering
// extends to local parity holders: while the parity member collects, a
// global member's soft GC is denied — otherwise a degraded read in the
// window could find neither its chunk nor the rack's XOR.
func TestLRCLocalParityStaggersGC(t *testing.T) {
	h := newLRCHarness(t)
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: h.ids[6], SrcIP: h.hosts[6]})
	out := h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCSoft, VSSD: h.ids[0], SrcIP: h.hosts[0]})
	if len(out) != 1 {
		t.Fatalf("forwarded %d packets, want 1", len(out))
	}
	if out[0].GC != packet.GCDelay {
		t.Fatalf("soft GC answered %v while the local parity collects, want GCDelay", out[0].GC)
	}
}

// TestLRCReplaceLocalParityMember swaps a rebuilt local parity holder
// for its adopter in the stripe table, like any global member.
func TestLRCReplaceLocalParityMember(t *testing.T) {
	h := newLRCHarness(t)
	h.sw.ReplaceStripeMember(h.ids[6], h.ids[0])
	group := h.sw.get(h.ids[0]).group
	if group == nil {
		t.Fatal("stripe group lost")
	}
	for _, id := range group {
		if id == h.ids[6] {
			t.Fatal("replaced local parity holder still listed in the stripe table")
		}
	}
}
