package switchsim

import (
	"testing"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// ecHarness registers a 4-member stripe group (RS(2,2)-shaped) on four
// servers.
type ecHarness struct {
	eng   *sim.Engine
	sw    *Switch
	out   []packet.Packet
	ids   []uint32
	hosts []uint32
}

func newECHarness(t testing.TB) *ecHarness {
	t.Helper()
	h := &ecHarness{eng: sim.NewEngine()}
	h.sw = New(h.eng, nil, func(p packet.Packet) { h.out = append(h.out, p) })
	for i := 0; i < 4; i++ {
		h.ids = append(h.ids, uint32(200+i))
		h.hosts = append(h.hosts, uint32(0x0A000020+i))
	}
	for i, id := range h.ids {
		// EC members register like any vSSD; the replica field points at
		// the next member so non-stripe-aware paths degrade gracefully.
		next := h.ids[(i+1)%len(h.ids)]
		h.sw.Process(packet.Packet{
			Op: packet.OpCreateVSSD, VSSD: id, SrcIP: h.hosts[i],
			ReplicaVSSD: next, ReplicaIP: h.hosts[(i+1)%len(h.ids)],
		})
	}
	h.sw.RegisterStripeMembers(h.ids, make([]int, len(h.ids))) // all in rack 0
	h.eng.Run()
	return h
}

func (h *ecHarness) send(p packet.Packet) []packet.Packet {
	h.out = nil
	h.sw.Process(p)
	h.eng.Run()
	return h.out
}

func TestECReadForwardedWhenHealthy(t *testing.T) {
	h := newECHarness(t)
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 5})
	if len(out) != 1 || out[0].VSSD != h.ids[0] || out[0].DstIP != h.hosts[0] {
		t.Fatalf("healthy EC read rerouted: %+v", out)
	}
	if h.sw.Stats().DegradedRedirects != 0 {
		t.Fatal("healthy read counted as degraded")
	}
}

func TestECReadRoutedAwayFromCollector(t *testing.T) {
	h := newECHarness(t)
	// Member 0 announces GC; its reads must land on a surviving member.
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: h.ids[0], SrcIP: h.hosts[0]})
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 9})
	if len(out) != 1 {
		t.Fatalf("forwarded %d packets, want 1", len(out))
	}
	if out[0].VSSD == h.ids[0] {
		t.Fatal("read still targets the collecting chunk holder")
	}
	found := false
	for i, id := range h.ids[1:] {
		if out[0].VSSD == id && out[0].DstIP == h.hosts[i+1] {
			found = true
		}
	}
	if !found {
		t.Fatalf("read routed to unknown member: %+v", out[0])
	}
	if h.sw.Stats().DegradedRedirects != 1 {
		t.Fatalf("DegradedRedirects = %d, want 1", h.sw.Stats().DegradedRedirects)
	}
}

func TestECReadRoutedAwayFromFailedHolder(t *testing.T) {
	h := newECHarness(t)
	h.sw.Failover(h.ids[2], h.ids[3])
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[2], DstIP: h.hosts[2], LPN: 1})
	if len(out) != 1 || out[0].VSSD == h.ids[2] {
		t.Fatalf("read for failed holder not rerouted: %+v", out)
	}
	if h.sw.Stats().DegradedRedirects != 1 {
		t.Fatalf("DegradedRedirects = %d, want 1", h.sw.Stats().DegradedRedirects)
	}
}

func TestECSoftGCStaggeredAcrossGroup(t *testing.T) {
	h := newECHarness(t)
	// Member 1 collects (regular GC, never denied).
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: h.ids[1], SrcIP: h.hosts[1]})
	// Member 3's soft request must now be delayed: another group member
	// is already collecting, and a second collector would leave stripes
	// with fewer than k healthy chunks.
	out := h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCSoft, VSSD: h.ids[3], SrcIP: h.hosts[3]})
	if len(out) != 1 {
		t.Fatalf("gc_op replies = %d, want 1", len(out))
	}
	if out[0].GC != packet.GCDelay {
		t.Fatalf("soft gc_op got %v, want delay", out[0].GC)
	}
	if h.sw.GCStatus(h.ids[3]) {
		t.Fatal("delayed member still marked collecting")
	}
	// After member 1 finishes, the soft request is accepted.
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCFinish, VSSD: h.ids[1], SrcIP: h.hosts[1]})
	out = h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCSoft, VSSD: h.ids[3], SrcIP: h.hosts[3]})
	if len(out) != 1 || out[0].GC != packet.GCAccept {
		t.Fatalf("soft gc_op after finish: %+v, want accept", out)
	}
}

func TestECNoHealthyMemberFallsBack(t *testing.T) {
	h := newECHarness(t)
	for _, id := range h.ids {
		h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: id, SrcIP: h.hosts[0]})
	}
	// Everyone collecting: the read is forwarded as-is rather than lost.
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: h.ids[0], DstIP: h.hosts[0], LPN: 2})
	if len(out) != 1 || out[0].VSSD != h.ids[0] {
		t.Fatalf("read with no healthy member: %+v, want in-place forward", out)
	}
}
