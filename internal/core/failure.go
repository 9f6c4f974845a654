package core

import (
	"slices"

	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// Failure handling (§3.7 "Others"): RackBlox detects failures with
// heartbeats; on server failure it fails traffic over to the surviving
// replicas and updates the switch tables. This file implements the
// heartbeat detector, the failover transition, and client request
// timeouts so open requests to a dead server do not leak.
//
// Every switch-table update of the failure path travels one way,
// through control: one sampled edge hop per update, plus the spine
// crossing to each ToR outside the sending rack, lost by a ToR that is
// dark when it lands (revival replays that ToR's tables instead, in
// replayToR, which is modeled as instantaneous).

// HeartbeatInterval is the simulated server heartbeat period.
const HeartbeatInterval = 10 * sim.Millisecond

// missedHeartbeats is how many silent periods declare a server dead.
const missedHeartbeats = 3

// clientTimeout bounds how long the client waits for a response before
// declaring the request lost (it was in flight to a server that died).
const clientTimeout = 100 * sim.Millisecond

// reachable reports whether a server can exchange traffic with the rest
// of the cluster: it must be alive and its rack's ToR must be up.
func (s *server) reachable() bool {
	return !s.failed && !s.rack.torFailed[s.rackIdx]
}

// serverReachable is reachable by global server index, the liveness
// ec.ChunkMap's source and adopter queries take.
func (r *Rack) serverReachable(idx int) bool { return r.servers[idx].reachable() }

// failToR takes one rack's ToR down at the injection instant.
func (r *Rack) failToR(rack int) {
	r.torFailed[rack] = true
	r.torCrashes[rack]++
	r.tors[rack].SetDown(true)
}

// reviveServer brings a crashed storage server back online
// (EventReviveServer). The box returns with blank DRAM and flash, so
// recovery is more than flipping a bit: every erasure-coded chunk
// holder it hosted is rebuilt from scratch by the metered reconstructor
// (catch-up repair re-targeted at the original holder, spilling onto
// the spine like any other repair) and re-registered under its own id
// when the last chunk lands; replicated instances re-pair with their
// survivors via Hermes AddPeer once the failover rewrites are
// withdrawn. Reviving a healthy or out-of-range server is a no-op
// returning false.
func (r *Rack) reviveServer(idx int) bool {
	if idx < 0 || idx >= len(r.servers) {
		return false
	}
	srv := r.servers[idx]
	if !srv.failed {
		return false
	}
	detected := srv.detected
	srv.failed = false
	srv.detected = false
	r.res.ServerRevivals++
	if detected {
		r.onServerRevived(srv)
	}
	return true
}

// reviveToR un-darkens a failed ToR (EventReviveToR): the switch comes
// back with blank SRAM, so the control plane replays its tables from
// surviving cluster state (replayToR). Reviving an up or out-of-range
// ToR is a no-op, as is a second revival of the same ToR; all return
// false.
func (r *Rack) reviveToR(rack int) bool {
	if rack < 0 || rack >= len(r.tors) || !r.torFailed[rack] {
		return false
	}
	r.torFailed[rack] = false
	r.torDetected[rack] = false
	r.res.ToRRevivals++
	tor := r.tors[rack]
	tor.SetDown(false)
	tor.ResetTables()
	r.replayToR(rack)
	return true
}

// onServerDetectedDead performs the failover: every vSSD instance on the
// dead server is replaced by its surviving replica in the switch tables,
// and the survivors' replication groups degrade so writes commit alone.
func (r *Rack) onServerDetectedDead(dead *server) {
	if dead.detected {
		return
	}
	dead.detected = true
	r.res.Failovers++
	for _, pr := range r.pairs {
		for _, inst := range []*instance{pr.primary, pr.replica} {
			if inst.server != dead {
				continue
			}
			survivor := r.insts[inst.replicaID]
			if survivor == nil || survivor.server.failed {
				continue // both copies lost; requests to this pair stall
			}
			// The survivor's Hermes node stops waiting for the dead peer.
			survivor.repl.RemovePeer(inst.repl.ID())
			r.installFailover(inst, survivor, nil)
		}
	}
	// Erasure-coded groups: every chunk holder on the dead server fails
	// over to an adopting member (reads reconstruct degraded, writes
	// land on the adopter), the loss is propagated to the sibling ToRs'
	// stripe tables, and the lost chunks are queued for background
	// reconstruction in the switch's GC idle windows. A holder that had
	// healed from an earlier crash (repeated fail/heal cycles) loses its
	// restored chunks again and re-enters the same pipeline.
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server != dead {
				continue
			}
			adopter := g.chunks.Adopter(i, r.serverReachable)
			if adopter < 0 {
				continue // whole group lost
			}
			r.installFailover(inst, g.insts[adopter], nil)
			r.propagateMemberDead(g, inst)
			// A holder restored onto this very server loses its rebuilt
			// chunks with it.
			g.chunks.Lose(i, dead.index)
			r.enqueueHolderRepair(g, i, adopter)
		}
		// The dead server may also hold re-integrated replacement chunks
		// adopted for other holders: those rebuilt chunks are gone with
		// it, so the holders degrade again and their repair restarts onto
		// a fresh adopter.
		for i := range g.insts {
			if rp := g.chunks.Replacement(i); rp < 0 || rp == i || g.insts[rp].server != dead {
				continue
			}
			g.chunks.Lose(i, dead.index)
			if adopter := g.chunks.Adopter(i, r.serverReachable); adopter >= 0 {
				r.enqueueHolderRepair(g, i, adopter)
			}
		}
	}
}

// enqueueHolderRepair (re)queues the full reconstruction of one lost
// holder onto member adopter, discarding any progress a previous repair
// generation had made (the chunks it rebuilt are lost or stale), and
// arms the repair pump.
func (r *Rack) enqueueHolderRepair(g *ecGroup, holder, adopter int) {
	g.chunks.Enqueue(holder, adopter, g.usedStripes, repairBatchStripes)
	r.scheduleRepair(g)
}

// control delivers one control-plane update, labeled label, from
// fromRack to each listed ToR and returns the slowest delivery delay.
// The update pays one edge hop, drawn once however many ToRs it reaches
// (even none), plus the spine crossing to ToRs in other racks; a ToR
// that is down when it lands misses it, like any packet to a dark
// switch.
func (r *Rack) control(label string, fromRack int, tors []*switchsim.Switch, apply func(*switchsim.Switch)) sim.Time {
	hop := r.net.HopLatency(r.eng.Now())
	var last sim.Time
	for _, tor := range tors {
		delay := hop + r.spine.Latency(fromRack, tor.RackID())
		last = max(last, delay)
		r.eng.AfterNamed(delay, label, func(sim.Time) {
			if !tor.Down() {
				apply(tor)
			}
		})
	}
	return last
}

// installFailover rewrites a dead instance's traffic to its survivor in
// the switch tables of tors. nil tors means the dead member's own ToR
// and — when the survivor lives under a different ToR — the survivor's
// too, so rerouted client traffic entering there resolves as well.
func (r *Rack) installFailover(deadInst, survivor *instance, tors []*switchsim.Switch) {
	if tors == nil {
		home, alt := r.torOf(deadInst.server), r.torOf(survivor.server)
		tors = []*switchsim.Switch{home, alt}
		if alt == home {
			tors = tors[:1]
		}
	}
	deadID, survivorID, survivorIP := deadInst.id, survivor.id, survivor.server.ip
	r.control("failover.install", deadInst.server.rackIdx, tors, func(tor *switchsim.Switch) {
		tor.RegisterDest(survivorID, survivorIP)
		tor.Failover(deadID, survivorID)
	})
	if r.controller != nil {
		r.controller.inGC[deadID] = false
	}
}

// propagateMemberDead tells every other ToR holding the group's stripe
// that a member is gone (inter-switch control plane), so their handoffs
// steer around it.
func (r *Rack) propagateMemberDead(g *ecGroup, deadInst *instance) {
	home, deadID := r.torOf(deadInst.server), deadInst.id
	var buf [8]*switchsim.Switch // stays on the stack for up to 8 racks
	others := slices.DeleteFunc(append(buf[:0], g.tors...), func(tor *switchsim.Switch) bool { return tor == home })
	r.control("failover.member_dead", deadInst.server.rackIdx, others, func(tor *switchsim.Switch) {
		tor.MarkRemoteDead(deadID)
	})
}

// onToRDetectedDead reacts to a ToR (whole-switch) failure: the rack's
// servers are alive but dark, so surviving ToRs must both stop handing
// stripe reads toward the isolated members and rewrite writes to
// adopting members. Unlike a rack crash no data is lost — nothing is
// queued for reconstruction, reads are served degraded until the ToR
// returns.
func (r *Rack) onToRDetectedDead(rackIdx int) {
	// A ToR revived before the heartbeat detector fired was a transient
	// blip: installing failovers for a healthy rack would steer reads
	// away from reachable members forever.
	if r.torDetected[rackIdx] || !r.torFailed[rackIdx] {
		return
	}
	r.torDetected[rackIdx] = true
	r.res.Failovers++
	for _, pr := range r.pairs {
		for _, inst := range []*instance{pr.primary, pr.replica} {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			survivor := r.insts[inst.replicaID]
			if survivor == nil || !survivor.server.reachable() {
				continue
			}
			survivor.repl.RemovePeer(inst.repl.ID())
			r.installFailover(inst, survivor, nil)
		}
	}
	// Erasure-coded members fail over on every ToR serving the group, so
	// client traffic entering through any surviving rack resolves the
	// rewrite.
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			if adopter := g.chunks.Adopter(i, r.serverReachable); adopter >= 0 {
				r.installFailover(inst, g.insts[adopter], g.tors)
				r.propagateMemberDead(g, inst)
			}
		}
	}
}

// replayToR rebuilds a revived ToR's blank tables from surviving
// cluster state — vSSD registrations, stripe members with any repaired
// replacements, and failover/remote-dead marks for members that are
// still dead — re-pairs the Hermes replicas the outage isolated, and
// clears the remote-dead and failover entries sibling ToRs hold for the
// revived rack's now-reachable members (the control-plane half of
// reviveToR). The replay is modeled as instantaneous: the controller
// streams the table image before re-enabling the data plane.
func (r *Rack) replayToR(rackIdx int) {
	tor := r.tors[rackIdx]

	// Re-register every pair instance homed in the revived rack as its
	// create_vssd did, pointing at its Hermes peer. One whose server
	// crashed (not merely darkened) keeps routing to its survivor; one
	// that is reachable again re-pairs with its peer, which dropped it
	// from the write quorum when the outage was detected.
	for _, pr := range r.pairs {
		for _, inst := range []*instance{pr.primary, pr.replica} {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			peer := r.insts[inst.replicaID]
			repIP := inst.server.ip
			if peer != nil {
				repIP = peer.server.ip
			}
			tor.InstallVSSD(inst.id, inst.server.ip, inst.replicaID, repIP)
			if peer == nil || !peer.server.reachable() {
				continue
			}
			if inst.server.reachable() {
				peer.repl.AddPeer(inst.repl.ID())
				inst.repl.AddPeer(peer.repl.ID())
			} else {
				tor.RegisterDest(peer.id, peer.server.ip)
				tor.Failover(inst.id, peer.id)
			}
		}
	}

	// Every group this ToR serves: re-register its locally homed members
	// at their same-rack neighbor (the hint buildGroups registers so
	// non-stripe paths never leak remote IPs into the wrong destination
	// table), replay the stripe table, then overlay the failure-era state
	// that survives revival: repaired holders point at their
	// replacements, still-dead local members get failover entries,
	// still-dead remote members get remote-dead marks.
	for _, g := range r.groups {
		if !slices.Contains(g.tors, tor) {
			continue
		}
		for i, inst := range g.insts {
			if inst.server.rackIdx == rackIdx {
				next := g.sameRackNeighbor(i)
				tor.InstallVSSD(inst.id, inst.server.ip, next.id, next.server.ip)
			}
		}
		ids, racks := g.memberTable()
		tor.RegisterStripeMembers(ids, racks)
		for i, m := range g.insts {
			if rp := g.chunks.Replacement(i); rp >= 0 {
				repl := g.insts[rp]
				tor.RegisterDest(repl.id, repl.server.ip)
				tor.ReplaceStripeMember(m.id, repl.id)
				continue
			}
			if m.server.reachable() {
				continue
			}
			if m.server.rackIdx == rackIdx {
				if a := g.chunks.Adopter(i, r.serverReachable); a >= 0 {
					adopter := g.insts[a]
					tor.RegisterDest(adopter.id, adopter.server.ip)
					tor.Failover(m.id, adopter.id)
				}
			} else {
				tor.MarkRemoteDead(m.id)
			}
		}
	}

	// Sibling ToRs: the revived rack's members are reachable again, so
	// the remote-dead marks and failover rewrites installed while it was
	// dark are stale — without this they would outlive the outage and
	// keep steering reads away from healthy holders forever.
	for j, sib := range r.tors {
		if j == rackIdx || sib.Down() {
			continue
		}
		for _, inst := range r.allInstances() {
			if inst.server.rackIdx != rackIdx || !inst.server.reachable() {
				continue
			}
			sib.ClearRemoteDead(inst.id)
			sib.FailoverCleared(inst.id)
		}
	}
}

// onServerRevived re-integrates a server that returned from a detected
// crash. The box comes back blank, so the two redundancy backends heal
// differently: replicated instances re-pair with their survivors —
// Hermes AddPeer restores the write quorum, the revived node rejoins
// with an empty key table, and the failover rewrites are withdrawn on
// every ToR — while erasure-coded holders catch up through the metered
// reconstructor, which rebuilds their full chunk set from the stripe
// survivors before re-registering them under their original ids
// (switchsim.RestoreStripeMember, via the usual reintegrate path).
func (r *Rack) onServerRevived(srv *server) {
	for _, pr := range r.pairs {
		for _, inst := range []*instance{pr.primary, pr.replica} {
			if inst.server != srv {
				continue
			}
			inst.repl.Rejoin()
			peer := r.insts[inst.replicaID]
			if peer == nil {
				continue
			}
			if peer.server.reachable() {
				// Re-pair: the survivor invalidates the returned replica
				// again on future writes, and traffic addressed to the
				// revived member stops being rewritten to the survivor.
				peer.repl.AddPeer(inst.repl.ID())
				inst.repl.AddPeer(peer.repl.ID())
				r.clearPairFailover(inst)
			} else {
				// The partner is still down: the revived member serves
				// the pair alone, absorbing the traffic that was rewritten
				// toward the (now dead) partner.
				inst.repl.RemovePeer(peer.repl.ID())
				r.clearPairFailover(inst)
				r.installFailover(peer, inst, nil)
			}
		}
	}
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server != srv || !g.chunks.Crashed(i) {
				continue
			}
			// Catch-up repair: the returning holder is blank, so its full
			// chunk set is rebuilt onto it from scratch — whatever a
			// previous adopter had absorbed is superseded.
			r.enqueueHolderRepair(g, i, i)
		}
	}
}

// clearPairFailover withdraws a revived pair member's failover rewrite
// on every ToR, so its traffic is served directly again.
func (r *Rack) clearPairFailover(inst *instance) {
	id := inst.id
	r.control("failover.clear", inst.server.rackIdx, r.tors, func(tor *switchsim.Switch) {
		tor.FailoverCleared(id)
	})
}

// watchTimeout arms the client-side loss detector for one request.
// Erasure-coded requests are retransmitted under a fresh sequence number
// (stale responses find no state and are dropped): sub-operations in
// flight to a server that crashed before the heartbeat detector
// installed failover routes are swallowed, but by the retry the switch
// steers around the dead holder, so every read eventually completes via
// degraded reconstruction.
func (r *Rack) watchTimeout(seq uint64) {
	if !r.anyFailure {
		return // no failure in the timeline; avoid per-request timer overhead
	}
	r.eng.AfterHandler(clientTimeout, r.lbl.timeout, r.newIO(ioStep{kind: ioTimeout, seq: seq}))
}

// timeout runs a request's client loss detector.
func (r *Rack) timeout(seq uint64) {
	st, ok := r.reqs[seq]
	if !ok {
		return // completed
	}
	delete(r.reqs, seq)
	if st.group != nil && st.retries < maxECRetries {
		st.retries++
		r.res.ECRetransmits++
		r.seq++
		st.seq = r.seq
		st.ecPending = 0
		st.arrival, st.dispatched, st.deviceDone = 0, 0, 0
		st.bounced, st.redirected = false, false
		// The new attempt re-anchors the span's phase partition: time
		// up to here becomes the retransmit phase.
		st.lastIssue = r.eng.Now()
		st.span.Annotate(trace.Int("retry", int64(st.retries)))
		r.reqs[st.seq] = st
		r.watchTimeout(st.seq)
		r.sendEC(st)
		return
	}
	st.decInflight()
	r.res.LostRequests++
	if !st.write {
		r.res.LostReads++
	}
	now := r.eng.Now()
	st.span.Phase("retransmit", st.lastIssue-st.issue)
	st.span.Phase("lost", now-st.lastIssue)
	st.span.Annotate(trace.String("status", "lost"), trace.Int("retries", int64(st.retries)))
	st.span.Abandon(now)
	r.freeStates.Put(st) // r.reqs was its only holder
}
