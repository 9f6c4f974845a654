package switchsim

import (
	"testing"
	"testing/quick"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

const (
	vssdA   = uint32(1)
	vssdB   = uint32(12) // replica of A
	serverA = uint32(0x0A000010)
	serverB = uint32(0x0A000014)
	client  = uint32(0x0A000001)
)

// harness wires a switch to a capture buffer and registers the A/B pair.
type harness struct {
	eng *sim.Engine
	sw  *Switch
	out []packet.Packet
}

func newHarness(t testing.TB, q Qdisc) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine()}
	h.sw = New(h.eng, q, func(p packet.Packet) { h.out = append(h.out, p) })
	h.sw.Process(packet.Packet{
		Op: packet.OpCreateVSSD, VSSD: vssdA, SrcIP: serverA,
		ReplicaVSSD: vssdB, ReplicaIP: serverB,
	})
	h.sw.Process(packet.Packet{
		Op: packet.OpCreateVSSD, VSSD: vssdB, SrcIP: serverB,
		ReplicaVSSD: vssdA, ReplicaIP: serverA,
	})
	h.eng.Run()
	return h
}

func (h *harness) send(p packet.Packet) []packet.Packet {
	h.out = nil
	h.sw.Process(p)
	h.eng.Run()
	return h.out
}

func TestCreateRegistersTables(t *testing.T) {
	h := newHarness(t, nil)
	a, b := h.sw.get(vssdA), h.sw.get(vssdB)
	if !a.hasReplica || !b.hasReplica {
		t.Fatal("vSSDs not registered")
	}
	if a.replica != vssdB {
		t.Fatalf("replica of A = %d, want %d", a.replica, vssdB)
	}
	if !b.hasDest || b.ip != serverB {
		t.Fatalf("dest of B = %x, want %x", b.ip, serverB)
	}
	if h.sw.TableSizeBytes() == 0 {
		t.Fatal("table size accounting empty")
	}
}

func TestDeleteRemovesTables(t *testing.T) {
	h := newHarness(t, nil)
	h.send(packet.Packet{Op: packet.OpDelVSSD, VSSD: vssdA})
	if h.sw.get(vssdA).hasReplica {
		t.Fatal("vSSD A still registered after del_vssd")
	}
	if !h.sw.get(vssdB).hasReplica {
		t.Fatal("del_vssd removed the wrong entry")
	}
}

func TestReadForwardedWhenIdle(t *testing.T) {
	h := newHarness(t, nil)
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	if len(out) != 1 {
		t.Fatalf("forwarded %d packets, want 1", len(out))
	}
	if out[0].DstIP != serverA || out[0].VSSD != vssdA {
		t.Fatalf("idle read rewritten: %+v", out[0])
	}
	if h.sw.Stats().Redirected != 0 {
		t.Fatal("idle read counted as redirected")
	}
}

func setGC(h *harness, vssd uint32, field packet.GCField) []packet.Packet {
	srv := serverA
	if vssd == vssdB {
		srv = serverB
	}
	return h.send(packet.Packet{Op: packet.OpGC, VSSD: vssd, GC: field, SrcIP: srv, DstIP: 0xFFFF})
}

func TestReadRedirectedDuringGC(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdA, packet.GCRegular)
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	if out[0].DstIP != serverB || out[0].VSSD != vssdB {
		t.Fatalf("read not redirected to replica: %+v", out[0])
	}
	if h.sw.Stats().Redirected != 1 {
		t.Fatal("redirect not counted")
	}
}

func TestReadNotRedirectedWhenBothCollect(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdA, packet.GCRegular)
	setGC(h, vssdB, packet.GCRegular)
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	if out[0].DstIP != serverA {
		t.Fatalf("read redirected although both replicas collect: %+v", out[0])
	}
}

func TestWritesNeverRedirected(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdA, packet.GCRegular)
	out := h.send(packet.Packet{Op: packet.OpWrite, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	if out[0].DstIP != serverA || out[0].VSSD != vssdA {
		t.Fatalf("write was redirected: %+v", out[0])
	}
}

func TestRegularGCAlwaysAccepted(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdB, packet.GCRegular) // replica already collecting
	out := setGC(h, vssdA, packet.GCRegular)
	if len(out) != 1 || out[0].GC != packet.GCAccept {
		t.Fatalf("regular GC reply = %+v, want accept", out)
	}
	if out[0].DstIP != serverA {
		t.Fatalf("reply not routed back to requester: %x", out[0].DstIP)
	}
	if !h.sw.GCStatus(vssdA) {
		t.Fatal("GC status not set after regular accept")
	}
}

func TestSoftGCAcceptedWhenReplicaIdle(t *testing.T) {
	h := newHarness(t, nil)
	out := setGC(h, vssdA, packet.GCSoft)
	if out[0].GC != packet.GCAccept {
		t.Fatalf("soft GC with idle replica = %v, want accept", out[0].GC)
	}
	if h.sw.Stats().Recirculations != 1 {
		t.Fatal("soft GC did not recirculate")
	}
}

func TestSoftGCDelayedWhenReplicaCollecting(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdB, packet.GCRegular)
	out := setGC(h, vssdA, packet.GCSoft)
	if out[0].GC != packet.GCDelay {
		t.Fatalf("soft GC with busy replica = %v, want delay", out[0].GC)
	}
	if h.sw.GCStatus(vssdA) {
		t.Fatal("delayed vSSD left marked as collecting")
	}
	if h.sw.Stats().GCDelayed != 1 {
		t.Fatal("delay not counted")
	}
}

func TestBackgroundGCAccepted(t *testing.T) {
	h := newHarness(t, nil)
	out := setGC(h, vssdA, packet.GCBackground)
	if out[0].GC != packet.GCAccept {
		t.Fatalf("background GC = %v, want accept", out[0].GC)
	}
}

func TestFinishClearsBothTables(t *testing.T) {
	h := newHarness(t, nil)
	setGC(h, vssdA, packet.GCRegular)
	out := setGC(h, vssdA, packet.GCFinish)
	if len(out) != 0 {
		t.Fatalf("finish produced %d replies, want 0", len(out))
	}
	if h.sw.GCStatus(vssdA) {
		t.Fatal("replica-table GC bit not cleared")
	}
	// A read must no longer be redirected.
	rd := h.send(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	if rd[0].DstIP != serverA {
		t.Fatal("read redirected after finish")
	}
}

func TestGCForUnknownVSSDDropped(t *testing.T) {
	h := newHarness(t, nil)
	out := h.send(packet.Packet{Op: packet.OpGC, VSSD: 999, GC: packet.GCRegular})
	if len(out) != 0 {
		t.Fatal("gc_op for unknown vSSD forwarded")
	}
	if h.sw.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestINTLatencyAdded(t *testing.T) {
	h := newHarness(t, nil)
	out := h.send(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA, LatUS: 7})
	if out[0].LatUS < 7 {
		t.Fatalf("INT latency lost: %d", out[0].LatUS)
	}
}

func TestDropRateInjection(t *testing.T) {
	h := newHarness(t, nil)
	h.sw.SetDropRate(1.0, sim.NewRNG(1))
	out := setGC(h, vssdA, packet.GCRegular)
	if len(out) != 0 {
		t.Fatal("gc reply not dropped at rate 1.0")
	}
	// State still updated: the switch marked GC before the reply was lost.
	if !h.sw.GCStatus(vssdA) {
		t.Fatal("GC state lost with dropped reply")
	}
}

func TestGCStatusConsistencyProperty(t *testing.T) {
	// Property: after every gc_op in any sequence over the A/B replica
	// pair, GCStatus matches a reference model of Algorithm 1 lines
	// 10-25 — regular and background gc_ops set the sender's bit, finish
	// clears it, and soft sets it only while the replica is idle
	// (clearing it otherwise).
	fields := [...]packet.GCField{packet.GCSoft, packet.GCRegular, packet.GCBackground, packet.GCFinish}
	f := func(ops []uint8) bool {
		h := newHarness(t, nil)
		model := map[uint32]bool{}
		peer := map[uint32]uint32{vssdA: vssdB, vssdB: vssdA}
		for _, op := range ops {
			vssd := vssdA
			if op&1 == 1 {
				vssd = vssdB
			}
			g := fields[(op>>1)%4]
			setGC(h, vssd, g)
			switch g {
			case packet.GCRegular, packet.GCBackground:
				model[vssd] = true
			case packet.GCFinish:
				model[vssd] = false
			case packet.GCSoft:
				model[vssd] = !model[peer[vssd]]
			}
			if h.sw.GCStatus(vssdA) != model[vssdA] || h.sw.GCStatus(vssdB) != model[vssdB] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestRowLifecycle pins which state each control-plane removal clears:
// del_vssd drops only a vSSD's replica and destination columns (its GC
// bit with them) and leaves failover and stripe state; ResetTables
// drops everything; and TableSizeBytes counts only replica and
// destination columns, never ids known only as remote stripe members,
// failover entries or remote-dead marks.
func TestRowLifecycle(t *testing.T) {
	h := newECHarness(t)
	dead, survivor := h.ids[2], h.ids[3]
	h.send(packet.Packet{Op: packet.OpGC, GC: packet.GCRegular, VSSD: dead, SrcIP: h.hosts[2]})
	h.sw.Failover(dead, survivor)
	h.send(packet.Packet{Op: packet.OpDelVSSD, VSSD: dead})
	if r := h.sw.get(dead); r.hasReplica || r.hasDest || r.gc {
		t.Fatalf("del_vssd left replica/destination state: %+v", *r)
	}
	out := h.send(packet.Packet{Op: packet.OpWrite, VSSD: dead, DstIP: h.hosts[2]})
	if len(out) != 1 || out[0].VSSD != survivor || out[0].DstIP != h.hosts[3] {
		t.Fatalf("write after del_vssd lost its failover rewrite: %+v", out)
	}
	out = h.send(packet.Packet{Op: packet.OpRead, VSSD: dead, DstIP: h.hosts[2], LPN: 1})
	if len(out) != 1 || h.sw.Stats().DegradedRedirects != 1 {
		t.Fatalf("read after del_vssd lost its stripe routing: %+v", out)
	}

	// Only columns count: 4 members with both columns, less the deleted one.
	if got, want := h.sw.TableSizeBytes(), 3*2*9; got != want {
		t.Fatalf("TableSizeBytes = %d, want %d", got, want)
	}
	h.sw.RegisterStripeMembers([]uint32{h.ids[0], 900, 901}, []int{0, 1, 1})
	h.sw.Failover(902, h.ids[0])
	h.sw.MarkRemoteDead(903)
	if got, want := h.sw.TableSizeBytes(), 3*2*9; got != want {
		t.Fatalf("TableSizeBytes = %d after remote, failover-only and remote-dead ids, want %d", got, want)
	}

	h.sw.ResetTables()
	if len(h.sw.rows) != 0 || h.sw.TableSizeBytes() != 0 {
		t.Fatalf("ResetTables left %d rows", len(h.sw.rows))
	}
	out = h.send(packet.Packet{Op: packet.OpWrite, VSSD: dead, DstIP: h.hosts[2]})
	if len(out) != 1 || out[0].VSSD != dead || out[0].DstIP != h.hosts[2] {
		t.Fatalf("write after ResetTables still rewritten: %+v", out)
	}
}

func TestTokenBucketDelaysBursts(t *testing.T) {
	tb := NewTokenBucket(1000, 2) // 1k pps, burst 2
	now := sim.Time(0)
	p := packet.Packet{SrcIP: client}
	if tb.Admit(p, now) != now {
		t.Fatal("first packet delayed")
	}
	if tb.Admit(p, now) != now {
		t.Fatal("second packet (burst) delayed")
	}
	rel := tb.Admit(p, now)
	if rel <= now {
		t.Fatal("over-burst packet not delayed")
	}
	if rel != now+sim.Millisecond {
		t.Fatalf("delay = %d, want 1ms at 1k pps", rel-now)
	}
}

func TestTokenBucketPerFlow(t *testing.T) {
	tb := NewTokenBucket(1000, 1)
	now := sim.Time(0)
	tb.Admit(packet.Packet{SrcIP: 1}, now)
	// A different flow has its own bucket.
	if tb.Admit(packet.Packet{SrcIP: 2}, now) != now {
		t.Fatal("flows share a bucket")
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(1000, 1)
	p := packet.Packet{SrcIP: client}
	tb.Admit(p, 0)
	// After 10ms, 10 tokens worth accumulated (capped at burst 1).
	if rel := tb.Admit(p, 10*sim.Millisecond); rel != 10*sim.Millisecond {
		t.Fatalf("refilled packet delayed to %d", rel)
	}
}

func TestFairQueueSharesCapacity(t *testing.T) {
	fq := NewFairQueue(sim.Microsecond)
	now := sim.Time(0)
	// One flow alone: spacing ~1 quantum.
	r1 := fq.Admit(packet.Packet{SrcIP: 1}, now)
	// Second flow arrives: both backlogged, service slows.
	r2 := fq.Admit(packet.Packet{SrcIP: 2}, now)
	r1b := fq.Admit(packet.Packet{SrcIP: 1}, now)
	if r1b <= r1 {
		t.Fatalf("same-flow packets not serialized: %d then %d", r1, r1b)
	}
	if r2 < r1 {
		t.Fatal("new flow starved behind first flow")
	}
}

func TestPriorityBurstDelays(t *testing.T) {
	pr := NewPriority(10*sim.Millisecond, sim.Millisecond)
	// Inside the burst window: delayed to burst end.
	if rel := pr.Admit(packet.Packet{}, 100*sim.Microsecond); rel != sim.Millisecond {
		t.Fatalf("in-burst release = %d, want 1ms", rel)
	}
	// Outside: immediate.
	if rel := pr.Admit(packet.Packet{}, 5*sim.Millisecond); rel != 5*sim.Millisecond {
		t.Fatalf("out-of-burst release = %d", rel)
	}
}

func TestPriorityValidation(t *testing.T) {
	pr := NewPriority(0, 0)
	if pr.Period != 10*sim.Millisecond || pr.BurstLen != sim.Millisecond {
		t.Fatalf("defaults: %+v", pr)
	}
	pr2 := NewPriority(sim.Millisecond, 10*sim.Millisecond)
	if pr2.BurstLen >= pr2.Period {
		t.Fatal("burst >= period accepted")
	}
}

func TestQdiscByName(t *testing.T) {
	for _, n := range []string{"TB", "FQ", "Priority", "None"} {
		q := QdiscByName(n)
		if q == nil {
			t.Fatalf("QdiscByName(%q) = nil", n)
		}
		if n != "None" && q.Name() != n {
			t.Fatalf("QdiscByName(%q).Name() = %q", n, q.Name())
		}
	}
}

func TestQueueDelayCountedInINT(t *testing.T) {
	// With a priority qdisc, a packet admitted mid-burst must carry the
	// burst wait in its INT latency.
	h := &harness{eng: sim.NewEngine()}
	h.sw = New(h.eng, NewPriority(10*sim.Millisecond, sim.Millisecond), func(p packet.Packet) { h.out = append(h.out, p) })
	h.sw.Process(packet.Packet{Op: packet.OpCreateVSSD, VSSD: vssdA, SrcIP: serverA, ReplicaVSSD: vssdB, ReplicaIP: serverB})
	h.eng.Run()
	h.out = nil
	// Send a read at t=20.1ms, 100us into a burst window.
	h.eng.At(20*sim.Millisecond+100*sim.Microsecond, func(sim.Time) {
		h.sw.Process(packet.Packet{Op: packet.OpRead, VSSD: vssdA, SrcIP: client, DstIP: serverA})
	})
	h.eng.Run()
	if len(h.out) != 1 {
		t.Fatalf("forwarded %d", len(h.out))
	}
	// The packet waits out the remaining 0.9ms of the burst.
	if h.out[0].LatencyNS() < int64(800*sim.Microsecond) {
		t.Fatalf("INT latency %d missing the ~0.9ms queue delay", h.out[0].LatencyNS())
	}
}

func TestTableSizeAtRackScale(t *testing.T) {
	// §3.3: up to 64K vSSDs in a rack; both tables must fit the claimed
	// 1.3MB within the tens of MB of switch SRAM.
	eng := sim.NewEngine()
	sw := New(eng, nil, func(packet.Packet) {})
	for i := uint32(0); i < 64*1024; i++ {
		sw.Process(packet.Packet{
			Op: packet.OpCreateVSSD, VSSD: i, SrcIP: serverA,
			ReplicaVSSD: i ^ 1, ReplicaIP: serverB,
		})
	}
	eng.Run()
	size := sw.TableSizeBytes()
	if size > 1_400_000 {
		t.Fatalf("tables occupy %d bytes at 64K vSSDs; paper claims <= 1.3MB", size)
	}
	if size < 64*1024*9 {
		t.Fatalf("table accounting too small: %d bytes", size)
	}
}
