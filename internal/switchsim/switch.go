// Package switchsim simulates the RackBlox ToR switch data plane: one
// row per vSSD id holding the replica and destination tables of §3.3
// (sharing the vSSD's single GC bit) together with the failover, stripe
// and multi-rack state the control plane installs; the packet-processing
// workflow of Algorithm 1 (read redirection, GC accept/delay,
// recirculation), INT per-hop latency accounting, and the egress
// scheduling policies of §4.5.2 (token bucket, fair queuing, priority).
package switchsim

import (
	"fmt"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// row is everything the switch knows about one vSSD id. Its replica
// column (Fig. 5a) and destination column (Fig. 5b) are each present or
// absent on their own: a pre-registered replica or failover target has
// only a destination, and a remote stripe member or a failover-only id
// has neither. The zero row is an id the switch knows nothing about.
type row struct {
	// gc is the vSSD's GC status, the bit both on-switch tables carry.
	// It is only ever set while the replica column is present.
	gc bool

	hasReplica bool
	replica    uint32 // the in-rack replica's vSSD id
	hasDest    bool
	ip         uint32 // the hosting server's IP

	// failedOver marks a dead vSSD: reads AND writes are rewritten to
	// survivor until the instance is re-replicated (§3.7).
	failedOver bool
	survivor   uint32

	// group is an erasure-coded chunk holder's full stripe group (k data
	// + m parity holders, then any local parities, in group order), one
	// slice shared by every member's row so replacements edit it for
	// all. Reads for a collecting or failed member are routed to a
	// surviving member, which coordinates the degraded reconstruction.
	group []uint32
	// rack is the member's rack. A member whose rack differs from the
	// switch's is never routed by IP from here — its GC state lives on
	// its own ToR — it is reached only through a handoff. remoteDead
	// marks such a member reported dead by the control plane.
	rack       int
	remoteDead bool
	// replaced marks a repaired (formerly failed) stripe member:
	// traffic addressed to it is rewritten to replacedBy, the holder now
	// serving its chunks, and served directly rather than degraded.
	replaced   bool
	replacedBy uint32
}

// absent is the row read for an id with no state; it is never written.
var absent row

// Forwarder delivers a packet leaving the switch toward pkt.DstIP. The
// rack composition supplies it and charges the ToR->host hop latency.
type Forwarder func(pkt packet.Packet)

// Handoff carries a packet to another rack's ToR switch over the cluster
// spine (multi-rack stripe routing); the cluster composition supplies it
// and charges the cross-rack latency.
type Handoff func(pkt packet.Packet, rack int)

// maxHandoffs bounds how many ToR-to-ToR hops one packet may take.
const maxHandoffs = 2

// Stats counts data-plane events for the evaluation.
type Stats struct {
	Forwarded      int64
	Redirected     int64
	FailedOver     int64
	GCAccepted     int64
	GCDelayed      int64
	GCFinished     int64
	Recirculations int64
	Dropped        int64
	// DegradedRedirects counts reads routed away from a collecting or
	// failed erasure-coded chunk holder to a surviving group member.
	DegradedRedirects int64
	// Handoffs counts reads passed to another rack's ToR because no local
	// stripe member could serve them (multi-rack degraded routing).
	Handoffs int64
	// Reintegrated counts packets rewritten to a repaired holder's
	// replacement (ReplaceStripeMember) and served directly — traffic
	// that before re-integration would have paid the degraded path.
	Reintegrated int64
}

// Add accumulates another switch's counters (cluster-wide totals).
func (s *Stats) Add(o Stats) {
	s.Forwarded += o.Forwarded
	s.Redirected += o.Redirected
	s.FailedOver += o.FailedOver
	s.GCAccepted += o.GCAccepted
	s.GCDelayed += o.GCDelayed
	s.GCFinished += o.GCFinished
	s.Recirculations += o.Recirculations
	s.Dropped += o.Dropped
	s.DegradedRedirects += o.DegradedRedirects
	s.Handoffs += o.Handoffs
	s.Reintegrated += o.Reintegrated
}

// Switch is the programmable ToR switch.
type Switch struct {
	eng  *sim.Engine
	rows map[uint32]*row
	// rackID is this ToR's rack, and handoff the path to sibling ToRs
	// (multi-rack clusters).
	rackID  int
	handoff Handoff
	// down marks a failed ToR: it drops every packet until repaired.
	down bool

	qdisc   Qdisc
	forward Forwarder
	stats   Stats

	// pipelineLabel is the interned "switch.pipeline" event label, and
	// freeStages recycles the events of packets waiting for the
	// pipeline, so a packet crossing the switch allocates nothing.
	pipelineLabel sim.Label
	freeStages    sim.FreeList[stage]

	// PipelineLatency is the per-packet match-action latency (Tofino-class
	// switches process in under a microsecond).
	PipelineLatency sim.Time
	// RecirculateLatency is the extra pipeline pass taken by soft gc_op
	// packets, which must read the replica's state and update their own.
	RecirculateLatency sim.Time

	// dropRate injects gc_op reply loss (link failure testing, §3.5.1:
	// the vSSD retries three times then collects anyway).
	dropRate float64
	dropRNG  *sim.RNG

	// TraceHook, when non-nil, observes every packet leaving the
	// pipeline. It is a pure observer: it runs after the routing
	// decision is made and must not mutate the packet or schedule
	// events, so installing it never changes a run.
	TraceHook func(ev TraceEvent)
}

// TraceEvent describes one packet's passage through the switch pipeline
// for the flight recorder: when it arrived at the egress queue, the
// total in-switch dwell (queueing plus match-action latency), and what
// the pipeline decided.
type TraceEvent struct {
	// Seq is the end-to-end request sequence number (0 for control
	// packets such as gc_ops).
	Seq  uint64
	VSSD uint32
	Op   packet.Op
	// Rack is the switch's rack id.
	Rack int
	// Arrived is when the packet entered the egress queue; the pipeline
	// released it at Arrived+Dwell-PipelineLatency.
	Arrived sim.Time
	Dwell   sim.Time
}

// New builds a switch with the given egress discipline and forwarder.
func New(eng *sim.Engine, q Qdisc, fwd Forwarder) *Switch {
	if q == nil {
		q = Passthrough{}
	}
	return &Switch{
		eng:                eng,
		rows:               make(map[uint32]*row),
		qdisc:              q,
		forward:            fwd,
		pipelineLabel:      eng.Intern("switch.pipeline"),
		PipelineLatency:    800 * sim.Nanosecond,
		RecirculateLatency: 800 * sim.Nanosecond,
	}
}

// ConfigureRack assigns the switch its rack id and the handoff path to
// sibling ToRs (multi-rack clusters).
func (s *Switch) ConfigureRack(id int, handoff Handoff) {
	s.rackID = id
	s.handoff = handoff
}

// RackID returns the configured rack id.
func (s *Switch) RackID() int { return s.rackID }

// SetDown marks the ToR failed (true) or repaired (false); a failed ToR
// drops every packet, isolating its rack from the cluster.
func (s *Switch) SetDown(down bool) { s.down = down }

// Down reports whether the ToR is failed.
func (s *Switch) Down() bool { return s.down }

// Stats returns a copy of the event counters.
func (s *Switch) Stats() Stats { return s.stats }

// SetDropRate makes the switch drop gc_op replies with probability p,
// for failure-injection tests.
func (s *Switch) SetDropRate(p float64, rng *sim.RNG) {
	s.dropRate = p
	s.dropRNG = rng
}

// TableSizeBytes reports the SRAM the tables would occupy on-switch:
// replica rows are 1B GC + 4B replica id, destination rows 1B GC + 4B IP,
// both keyed by a 4-byte vSSD id (§3.3 sizes the maximum at 1.3 MB).
func (s *Switch) TableSizeBytes() int {
	n := 0
	for _, r := range s.rows {
		if r.hasReplica {
			n += 4 + 1 + 4
		}
		if r.hasDest {
			n += 4 + 1 + 4
		}
	}
	return n
}

// get returns id's row for reading (absent when the switch has none).
func (s *Switch) get(id uint32) *row {
	if r, ok := s.rows[id]; ok {
		return r
	}
	return &absent
}

// edit returns id's row for writing, creating it if needed.
func (s *Switch) edit(id uint32) *row {
	r, ok := s.rows[id]
	if !ok {
		r = &row{}
		s.rows[id] = r
	}
	return r
}

// GCStatus exposes a vSSD's GC bit (tests and the controller).
func (s *Switch) GCStatus(vssd uint32) bool { return s.get(vssd).gc }

// RegisterStripeMembers records a stripe group whose members span racks:
// racks[i] is member i's rack. Local members route by IP; remote members
// are reachable only through an inter-switch handoff, since their GC and
// failure state lives on their own ToR. The member list need not stop at
// the code's k+m global holders: local-parity layouts append one parity
// holder per rack, and the table treats them as full members — eligible
// degraded-read targets (a parity holder coordinates its rack's XOR
// reconstruction), consulted by the GC staggering, and replaceable after
// repair like any other holder.
func (s *Switch) RegisterStripeMembers(group []uint32, racks []int) {
	if len(group) != len(racks) {
		panic("switchsim: stripe group and rack list lengths differ")
	}
	g := append([]uint32(nil), group...)
	for i, id := range g {
		r := s.edit(id)
		r.group = g
		r.rack = racks[i]
	}
}

// MarkRemoteDead records that a stripe member homed in another rack has
// failed (control-plane propagation from its own ToR's failover), so
// degraded reads stop handing off toward it.
func (s *Switch) MarkRemoteDead(id uint32) { s.edit(id).remoteDead = true }

// ClearRemoteDead removes a remote-dead mark after the member became
// reachable again (its ToR revived, or a replacement was registered).
func (s *Switch) ClearRemoteDead(id uint32) {
	if r, ok := s.rows[id]; ok {
		r.remoteDead = false
	}
}

// RemoteDead reports whether a member is currently marked dead-remote.
func (s *Switch) RemoteDead(id uint32) bool { return s.get(id).remoteDead }

// ReplaceStripeMember re-registers a rebuilt chunk holder (control
// plane): member old's chunks have been reconstructed onto replacement,
// so old is swapped out of the stripe table, its failover and
// remote-dead entries are cleared, and traffic still addressed to old
// is rewritten to the replacement and served directly — post-repair
// reads stop paying the degraded-reconstruction cost. The call is
// idempotent; it is a no-op when old has no stripe state here or the
// replacement is not a registered member of the same group.
func (s *Switch) ReplaceStripeMember(old, replacement uint32) {
	r := s.get(old)
	if r.group == nil || old == replacement || s.get(replacement).group == nil {
		return
	}
	for i, id := range r.group {
		if id == old {
			r.group[i] = replacement
		}
	}
	r.replaced, r.replacedBy = true, replacement
	r.failedOver, r.remoteDead = false, false
}

// RestoreStripeMember re-registers a member under its own id after a
// catch-up repair rebuilt its chunks back onto the original server
// (server revival): the failover rewrite and remote-dead mark are
// dropped, and if a replacement alias had been installed it is removed
// and the member takes back a slot in its group row — chasing the
// replacement chain in case the alias target was itself later repaired
// elsewhere. A no-op for members with no stripe state here.
func (s *Switch) RestoreStripeMember(id uint32) {
	r := s.get(id)
	if r.group == nil {
		return
	}
	r.failedOver, r.remoteDead = false, false
	if !r.replaced {
		return
	}
	r.replaced = false
	cur := r.replacedBy
	for i := 0; i < 16; i++ {
		next := s.get(cur)
		if !next.replaced || next.replacedBy == cur {
			break
		}
		cur = next.replacedBy
	}
	for i, m := range r.group {
		if m == cur {
			r.group[i] = id
			return
		}
	}
}

// applyReplaced rewrites a packet addressed to a repaired member (r is
// the row of its target) toward its registered replacement, chasing the
// chain that forms when a replacement itself later fails and is repaired
// elsewhere. It returns the row of the final target and whether a
// rewrite happened. Chains are acyclic by construction — a replaced
// member is dead and never adopts — but the hop bound keeps a corrupted
// table from looping the pipeline.
func (s *Switch) applyReplaced(pkt *packet.Packet, r *row) (*row, bool) {
	moved := false
	for i := 0; i < 16 && r.replaced && r.replacedBy != pkt.VSSD; i++ {
		pkt.VSSD = r.replacedBy
		if r = s.get(pkt.VSSD); r.hasDest {
			pkt.DstIP = r.ip
		}
		moved = true
	}
	if moved {
		s.stats.Reintegrated++ // once per packet, however long the chain
	}
	return r, moved
}

// InstallVSSD installs a vSSD's replica and destination columns, as a
// create_vssd packet does: the GC bit starts clear, and the replica's
// destination is pre-registered so redirection works before the
// replica's own create arrives. The revival replay calls it directly
// (control plane) to rebuild a ToR's tables from surviving state.
func (s *Switch) InstallVSSD(vssd, ip, replica, replicaIP uint32) {
	r := s.edit(vssd)
	r.gc = false
	r.hasReplica, r.replica = true, replica
	r.hasDest, r.ip = true, ip
	s.RegisterDest(replica, replicaIP)
}

// ResetTables models the SRAM loss of a power-cycled switch: every row
// is cleared. A revived ToR starts from this blank state and has its
// tables replayed by the control plane.
func (s *Switch) ResetTables() { s.rows = make(map[uint32]*row) }

// RegisterDest installs a destination column directly (control plane)
// unless one is present: the failover path uses it so a rewrite target
// living under another ToR still resolves to an IP here.
func (s *Switch) RegisterDest(vssd uint32, ip uint32) {
	if r := s.edit(vssd); !r.hasDest {
		r.hasDest, r.ip = true, ip
	}
}

// healthy reports whether the chunk holder with row r can serve reads
// here now: it must be homed under this ToR, registered, not failed
// over, and not collecting garbage. Members of other racks are never
// "healthy" here — their state lives on their own ToR and reads reach
// them through a handoff instead.
func (s *Switch) healthy(r *row) bool {
	return r.rack == s.rackID && r.hasDest && !r.failedOver && !r.gc
}

// routeECRead steers a read for an erasure-coded chunk holder (r is its
// row), rack-local first: healthy local targets keep their traffic;
// otherwise the read goes to a surviving local group member (scan offset
// rotates with the LPN so degraded traffic spreads over the group),
// which reconstructs from any k chunks. Only when no local member can
// serve does the read spill onto the spine: a handoff to the ToR of the
// next rack holding a live member. If nothing is reachable the failover
// entry gets the last word. Returns false when the packet left via a handoff; the caller's
// dwell is charged here in that case, since the packet still crossed
// this switch's pipeline and egress queue on its way out.
func (s *Switch) routeECRead(pkt *packet.Packet, r *row, dwell sim.Time, reassigned bool) bool {
	if s.healthy(r) {
		return true
	}
	// The packet was just rewritten to a re-integrated replacement homed
	// in another rack (the alias can point across racks). Its rebuilt
	// chunk is intact there, so hand the read to its own ToR — which
	// knows its GC and failure state — instead of paying a k-fetch
	// reconstruction here. Only alias-rewritten packets take this path:
	// an ordinary handoff arriving for a remote member must not bounce
	// back toward the rack that could not serve it.
	if reassigned && r.rack != s.rackID && !r.remoteDead &&
		s.handoff != nil && pkt.Handoffs < maxHandoffs {
		pkt.Handoffs++
		s.stats.Handoffs++
		pkt.AddLatency(dwell)
		s.handoff(*pkt, r.rack)
		return false
	}
	group := r.group
	n := len(group)
	start := int(pkt.LPN) % n
	for i := 0; i < n; i++ {
		id := group[(start+i)%n]
		if m := s.get(id); id != pkt.VSSD && s.healthy(m) {
			pkt.VSSD = id
			pkt.DstIP = m.ip
			s.stats.Redirected++
			s.stats.DegradedRedirects++
			return true
		}
	}
	if s.handoff != nil && pkt.Handoffs < maxHandoffs {
		for i := 0; i < n; i++ {
			m := s.get(group[(start+i)%n])
			if m.rack == s.rackID || m.remoteDead {
				continue
			}
			pkt.Handoffs++
			s.stats.Handoffs++
			pkt.AddLatency(dwell)
			s.handoff(*pkt, m.rack)
			return false
		}
	}
	s.applyFailover(pkt, r)
	return true
}

// Process handles one packet arriving at the switch at the current virtual
// time. The packet passes the egress discipline, then the Algorithm 1
// match-action logic, and leaves via the Forwarder with its INT latency
// updated by the full in-switch dwell time.
func (s *Switch) Process(pkt packet.Packet) {
	if s.down {
		s.stats.Dropped++ // failed ToR: the rack is dark
		return
	}
	now := s.eng.Now()
	release := s.qdisc.Admit(pkt, now)
	if release < now {
		release = now
	}
	st := s.freeStages.Get()
	*st = stage{s: s, pkt: pkt, arrived: now}
	s.eng.AtHandler(release, s.pipelineLabel, st)
}

// stage is one packet between the egress queue and the match-action
// pipeline: the switch.pipeline event.
type stage struct {
	s       *Switch
	pkt     packet.Packet
	arrived sim.Time
}

// Fire runs the pipeline. The event is recycled before the pipeline
// runs, since forwarding may immediately schedule into the same slot.
func (st *stage) Fire(now sim.Time) {
	s, pkt, arrived := st.s, st.pkt, st.arrived
	s.freeStages.Put(st)
	s.runPipeline(pkt, arrived, now)
}

// runPipeline applies Algorithm 1 after the packet clears the egress queue.
func (s *Switch) runPipeline(pkt packet.Packet, arrived, now sim.Time) {
	dwell := now - arrived + s.PipelineLatency
	if s.TraceHook != nil {
		s.TraceHook(TraceEvent{Seq: pkt.Seq, VSSD: pkt.VSSD, Op: pkt.Op,
			Rack: s.rackID, Arrived: arrived, Dwell: dwell})
	}
	switch pkt.Op {
	case packet.OpCreateVSSD:
		s.InstallVSSD(pkt.VSSD, pkt.SrcIP, pkt.ReplicaVSSD, pkt.ReplicaIP)
		return // control-plane insert; no data-plane forward
	case packet.OpDelVSSD:
		// Only the vSSD's own columns go; failover and stripe state
		// stay until the control plane clears them.
		if r, ok := s.rows[pkt.VSSD]; ok {
			r.gc, r.hasReplica, r.hasDest = false, false, false
		}
		return
	case packet.OpWrite:
		// Writes are never redirected (Algorithm 1 line 2-3) — unless
		// their target was repaired elsewhere or failed, in which case
		// the replacement (or surviving replica) is the only copy left
		// to apply them.
		r, _ := s.applyReplaced(&pkt, s.get(pkt.VSSD))
		s.applyFailover(&pkt, r)
		pkt.AddLatency(dwell)
		s.emit(pkt)
	case packet.OpRead:
		r, reassigned := s.applyReplaced(&pkt, s.get(pkt.VSSD))
		s.handleRead(pkt, r, dwell, reassigned)
	case packet.OpGC:
		s.handleGC(pkt, dwell)
	case packet.OpResponse:
		pkt.AddLatency(dwell)
		s.emit(pkt)
	default:
		s.stats.Dropped++
	}
}

// handleRead implements Algorithm 1 lines 4-9: redirect a read away from a
// collecting vSSD when its replica is idle. Erasure-coded chunk holders
// take the stripe-routing path instead: their "replica" is the whole
// surviving group. reassigned marks a packet its replacement alias just
// rewrote (see applyReplaced), and r is the row of its target.
func (s *Switch) handleRead(pkt packet.Packet, r *row, dwell sim.Time, reassigned bool) {
	if r.group != nil {
		if s.routeECRead(&pkt, r, dwell, reassigned) {
			pkt.AddLatency(dwell)
			s.emit(pkt)
		}
		return
	}
	if r = s.applyFailover(&pkt, r); r.gc {
		if rep := s.get(r.replica); rep.hasDest && !rep.gc {
			pkt.DstIP = rep.ip
			pkt.VSSD = r.replica
			s.stats.Redirected++
		}
		// If both the vSSD and its replica are collecting, forward as is.
	}
	pkt.AddLatency(dwell)
	s.emit(pkt)
}

// handleGC implements Algorithm 1 lines 10-25.
func (s *Switch) handleGC(pkt packet.Packet, dwell sim.Time) {
	r := s.get(pkt.VSSD)
	if !r.hasReplica {
		s.stats.Dropped++
		return
	}
	switch pkt.GC {
	case packet.GCSoft:
		// Soft requests read the replica's state and update their own:
		// one extra pipeline pass (recirculation) keeps the two register
		// accesses consistent.
		s.stats.Recirculations++
		dwell += s.RecirculateLatency
		replicaBusy := false
		if r.group != nil {
			// Rack-aware staggering: a chunk holder may soft-collect only
			// while no other member of its stripe group does, so degraded
			// reads always find k survivors. Failed-over members are
			// skipped — a ghost GC bit left by a crashed holder must not
			// block the survivors' soft GC forever.
			// Only local members are consulted: a remote member's GC bit
			// lives on its own ToR (the per-rack stripe table's blind
			// spot, one cost of the multi-rack design point).
			for _, id := range r.group {
				m := s.get(id)
				if id != pkt.VSSD && m.rack == s.rackID && !m.failedOver && m.gc {
					replicaBusy = true
					break
				}
			}
		} else {
			replicaBusy = s.get(r.replica).gc
		}
		// The bit is written after the replica's is read, so a vSSD
		// registered as its own replica sees its state before this op.
		r.gc = !replicaBusy
		if replicaBusy {
			pkt.GC = packet.GCDelay
			s.stats.GCDelayed++
		} else {
			pkt.GC = packet.GCAccept
			s.stats.GCAccepted++
		}
	case packet.GCFinish:
		r.gc = false
		s.stats.GCFinished++
		return // finish needs no reply
	default: // regular and background: never denied
		r.gc = true
		pkt.GC = packet.GCAccept
		s.stats.GCAccepted++
	}
	// Reply to the requesting server.
	pkt.DstIP, pkt.SrcIP = pkt.SrcIP, pkt.DstIP
	pkt.AddLatency(dwell)
	if s.dropRate > 0 && s.dropRNG != nil && s.dropRNG.Bool(s.dropRate) {
		s.stats.Dropped++
		return
	}
	s.emit(pkt)
}

// Failover marks vssd dead: the data plane rewrites its traffic to the
// surviving replica until re-replication re-registers the pair (§3.7:
// "On server failure, RackBlox replicates the replicas to other servers
// and updates their switches").
func (s *Switch) Failover(vssd, survivor uint32) {
	r := s.edit(vssd)
	r.failedOver, r.survivor = true, survivor
	// Clear the GC bit: the dead vSSD will never send the gc_op finish
	// that would otherwise release it.
	r.gc = false
}

// FailoverCleared removes a failover entry after recovery.
func (s *Switch) FailoverCleared(vssd uint32) {
	if r, ok := s.rows[vssd]; ok {
		r.failedOver = false
	}
}

// applyFailover rewrites a packet for a failed-over vSSD (r is the row
// of its target) to the survivor and returns the row of the final target.
func (s *Switch) applyFailover(pkt *packet.Packet, r *row) *row {
	if !r.failedOver {
		return r
	}
	to := s.get(r.survivor)
	if !to.hasDest {
		return r
	}
	pkt.VSSD = r.survivor
	pkt.DstIP = to.ip
	s.stats.FailedOver++
	// A stale entry may name a survivor that has since been repaired
	// onto a replacement; resolve the rewrite through the replacement
	// alias so traffic never targets a member that no longer serves.
	to, _ = s.applyReplaced(pkt, to)
	return to
}

func (s *Switch) emit(pkt packet.Packet) {
	s.stats.Forwarded++
	if s.forward == nil {
		panic(fmt.Sprintf("switchsim: no forwarder for packet %+v", pkt))
	}
	s.forward(pkt)
}
