package switchsim

import (
	"testing"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// BenchmarkSwitchProcess measures one packet's trip through the ToR:
// egress admission, the switch.pipeline event and the Algorithm 1
// match-action logic. Each sub-benchmark holds the switch in a steady
// state so every iteration takes the same path:
//
//   - redirect: a replicated read while its vSSD collects and the
//     replica is idle (Algorithm 1 lines 4-9);
//   - stripe: an erasure-coded read for a failed-over chunk holder,
//     routed to a surviving group member;
//   - soft-gc: a soft gc_op with an idle replica, which recirculates and
//     is accepted.
func BenchmarkSwitchProcess(b *testing.B) {
	b.Run("redirect", func(b *testing.B) {
		h := newHarness(b, nil)
		setGC(h, vssdA, packet.GCRegular)
		h.sw.forward = func(packet.Packet) {}
		benchProcess(b, h.eng, h.sw,
			packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA},
			func(st Stats) int64 { return st.Redirected })
	})
	b.Run("stripe", func(b *testing.B) {
		h := newECHarness(b)
		h.sw.Failover(h.ids[2], h.ids[3])
		h.sw.forward = func(packet.Packet) {}
		benchProcess(b, h.eng, h.sw,
			packet.Packet{Op: packet.OpRead, VSSD: h.ids[2], DstIP: h.hosts[2], LPN: 1},
			func(st Stats) int64 { return st.DegradedRedirects })
	})
	b.Run("soft-gc", func(b *testing.B) {
		h := newHarness(b, nil)
		h.sw.forward = func(packet.Packet) {}
		benchProcess(b, h.eng, h.sw,
			packet.Packet{Op: packet.OpGC, VSSD: vssdA, GC: packet.GCSoft, SrcIP: serverA, DstIP: 0xFFFF},
			func(st Stats) int64 { return st.GCAccepted })
	})
}

// benchProcess sends pkt through sw b.N times, after one warm-up packet
// that fills the stage free list, and fails unless every packet took
// the path that counted reports.
func benchProcess(b *testing.B, eng *sim.Engine, sw *Switch, pkt packet.Packet, counted func(Stats) int64) {
	sw.Process(pkt)
	eng.Run()
	before := counted(sw.Stats())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkt)
		eng.Run()
	}
	b.StopTimer()
	if got := counted(sw.Stats()) - before; got != int64(b.N) {
		b.Fatalf("%d of %d packets took the benchmarked path", got, b.N)
	}
}
