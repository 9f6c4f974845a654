package core

import (
	"slices"

	"rackblox/internal/ec"
	"rackblox/internal/packet"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
	"rackblox/internal/workload"
)

// Erasure-coding datapath constants.
const (
	// ecDecodeTime is the CPU cost of one RS(k,m) stripe decode on a
	// degraded read (GF(2^8) matrix-vector over a 4 KB chunk).
	ecDecodeTime = 8 * sim.Microsecond
	// repairBatchStripes is how many stripes one background repair task
	// rebuilds; batching keeps event counts proportional to lost
	// capacity, not pages.
	repairBatchStripes = 64
	// maxECRetries bounds client retransmissions of an erasure-coded
	// request whose sub-operations were swallowed by a crashed server.
	maxECRetries = 5
)

// ecGroup is one erasure-coded volume: k data + m parity chunk holders
// placed on distinct servers, with the client-side generator and the
// chunk map whose repair queue the pump drains in GC idle windows.
// Under the LRC family (Config.Redundancy LocalParityCoded) the member
// list extends past the k+m global holders with one local parity holder
// per occupied rack — the XOR of that rack's global chunks — enabling
// zero-spine single-loss repair and per-rack aggregated multi-loss
// repair.
type ecGroup struct {
	rack    *Rack
	idx     int
	spec    ec.Spec
	striper ec.Striper
	// insts holds the k+m global chunk holders in placement order,
	// followed (LRC only) by the local parity holders in rack order.
	insts []*instance
	// tors lists the ToRs serving the group, one per rack it occupies,
	// in member order: the ToRs holding its stripe table, and the ones
	// every group-wide control-plane update reaches.
	tors     []*switchsim.Switch
	gen      workload.Generator
	inflight int

	// usedStripes is how many stripes the preconditioned keyspace
	// touches; reconstruction of a lost chunk covers exactly these.
	usedStripes int

	// repairArmed marks a repairPump event scheduled; repairInFlight a
	// claimed task not yet landed (waiting for pacer tokens or running).
	repairArmed    bool
	repairInFlight bool

	// chunks maps insts' positions to servers and keeps the group's
	// repair queue and each holder's repair record: its crash, the
	// member its rebuild is pinned to (so a reachability change
	// mid-repair cannot desynchronize where the chunks landed from
	// where reads are steered afterwards), the stripes left and the
	// repair generation and, once re-integrated, the replacement that
	// serves its chunks directly. reintegratedAt is when the last
	// outstanding holder completed.
	chunks         ec.ChunkMap
	reintegratedAt sim.Time

	// Scratch for the lists the datapath and repair compute per request
	// or batch: writeHolders fills holderBuf, startDegradedRead readBuf
	// and repairPlan repairBuf. No caller holds one across another fill.
	holderBuf          []*instance
	readBuf, repairBuf []int
}

// holderIndex resolves a member id to its group-local holder index.
func (g *ecGroup) holderIndex(id uint32) (int, bool) {
	for i, m := range g.insts {
		if m.id == id {
			return i, true
		}
	}
	return 0, false
}

// hasLocalParity reports the LRC family: members past the global k+m
// are per-rack local parity holders.
func (g *ecGroup) hasLocalParity() bool { return len(g.insts) > g.spec.Width() }

// memberTable derives the per-rack stripe-table rows — member ids and
// their racks, in placement order. Both the initial registration
// (buildGroups) and the revival replay (replayToR) install exactly
// these rows, so the two paths cannot drift.
func (g *ecGroup) memberTable() (ids []uint32, racks []int) {
	ids = make([]uint32, len(g.insts))
	racks = make([]int, len(g.insts))
	for i, m := range g.insts {
		ids[i] = m.id
		racks[i] = m.server.rackIdx
	}
	return ids, racks
}

// servesDirect reports whether inst is the re-integrated replacement for
// the holder a read was addressed to: the rebuilt chunk lives here, so
// the switch-rewritten read is served like any healthy read instead of a
// k-fetch reconstruction.
func (g *ecGroup) servesDirect(inst *instance, homeID uint32) bool {
	i, ok := g.holderIndex(homeID)
	return ok && g.chunks.Replacement(i) >= 0 && g.insts[g.chunks.Replacement(i)] == inst
}

// repairPlan plans holder's rebuild onto member target
// (ec.ChunkMap.RepairPlan); the sources are the group's repairBuf.
func (g *ecGroup) repairPlan(holder, target int) (src []int, local bool, cross int) {
	g.repairBuf, local, cross = g.chunks.RepairPlan(g.repairBuf, holder, target, g.rack.serverReachable)
	return g.repairBuf, local, cross
}

// buildGroups creates the erasure-coded volumes: for each group, k+m
// chunk-holder instances on distinct servers (rack-aware placement),
// switch registration (create_vssd plus the stripe table), and the
// workload generator over the striped keyspace.
func (r *Rack) buildGroups() error {
	cfg := r.cfg
	spec := cfg.Redundancy.ec()
	placer := cfg.placer()
	alloc := r.channelAllocator()

	for gidx := 0; gidx < cfg.VSSDPairs; gidx++ {
		g := &ecGroup{
			rack:    r,
			idx:     gidx,
			spec:    spec,
			striper: ec.Striper{Spec: spec},
		}
		servers := placer.Place(gidx)
		if cfg.Redundancy.localParity() {
			// The LRC family appends one local parity holder per occupied
			// rack after the k+m global members.
			servers = append(servers, placer.LocalParityServers(gidx, servers)...)
		}
		total := len(servers)
		for i, sIdx := range servers {
			srv := r.servers[sIdx]
			id := uint32(100 + gidx*total + i)
			nextID := uint32(100 + gidx*total + (i+1)%total)
			inst, err := r.newInstance(srv, id, nextID, gidx, i == 0, alloc)
			if err != nil {
				return err
			}
			g.insts = append(g.insts, inst)
		}
		g.chunks = ec.NewChunkMap(spec, servers, placer.RackOf)

		// Register every chunk holder with its own rack's ToR
		// (create_vssd, replica = the next member in the same rack so
		// non-stripe paths degrade gracefully without leaking remote IPs
		// into the wrong destination table), then install the stripe
		// group — member ids plus their racks — in every involved ToR's
		// per-rack stripe table for degraded routing and handoff.
		for i, inst := range g.insts {
			next := g.sameRackNeighbor(i)
			tor := r.torOf(inst.server)
			tor.Process(packet.Packet{
				Op: packet.OpCreateVSSD, VSSD: inst.id, SrcIP: inst.server.ip,
				ReplicaVSSD: next.id, ReplicaIP: next.server.ip,
			})
			if !slices.Contains(g.tors, tor) {
				g.tors = append(g.tors, tor)
			}
		}
		ids, racks := g.memberTable()
		for _, tor := range g.tors {
			tor.RegisterStripeMembers(ids, racks)
		}

		// Each chunk holder's key space is the group's stripe count.
		g.usedStripes = r.keyspace(g.insts[0].v.FTL, 1)
		g.gen = r.makeGenerator(gidx, g.usedStripes*spec.K)
		r.groups = append(r.groups, g)
		if r.controller != nil {
			r.controller.registerGroup(g)
		}
	}
	r.eng.Run() // drain registration events
	return nil
}

// sameRackNeighbor returns the next group member sharing member i's rack
// (the "replica" hint registered with its ToR); with no rack-local
// neighbor the member points at itself, a harmless self-entry.
func (g *ecGroup) sameRackNeighbor(i int) *instance {
	self := g.insts[i]
	n := len(g.insts)
	for d := 1; d < n; d++ {
		m := g.insts[(i+d)%n]
		if m.server.rackIdx == self.server.rackIdx {
			return m
		}
	}
	return self
}

// writeHolders returns the instances a logical write must update: the
// data chunk's holder plus the stripe's m parity holders — and, under
// the LRC family, the local parity holder of every rack those updates
// touch (the honest write amplification of local parity: an updated
// chunk changes its rack's XOR). Members are returned as originally
// placed — the client's volume map never changes; the ToR rewrites
// traffic for failed-over or re-integrated members. The slice is the
// group's scratch, valid until the next writeHolders call.
func (g *ecGroup) writeHolders(stripe, pos int) []*instance {
	out := append(g.holderBuf[:0], g.insts[g.striper.DataHolder(stripe, pos)])
	for j := 0; j < g.spec.M; j++ {
		out = append(out, g.insts[g.striper.ParityHolder(stripe, j)])
	}
	if g.hasLocalParity() {
		global := len(out)
		for _, lp := range g.insts[g.spec.Width():] {
			for _, m := range out[:global] {
				if m.server.rackIdx == lp.server.rackIdx {
					out = append(out, lp)
					break
				}
			}
		}
	}
	g.holderBuf = out
	return out
}

// issueEC sends one request from an erasure-coded volume's generator and
// schedules the next arrival (semi-open loop, like issue for pairs).
func (r *Rack) issueEC(g *ecGroup) {
	now := r.eng.Now()
	if now < r.stopIssuing {
		r.eng.AfterHandler(g.gen.NextGap(), r.lbl.issueEC, g)
	}
	if r.cfg.MaxClientInflight > 0 && g.inflight >= r.cfg.MaxClientInflight {
		return
	}
	r.sendECOp(g, g.gen.Next())
}

// sendECOp issues one logical request of volume g: its request state,
// the client loss detector, and the fan-out to the chunk holders.
func (r *Rack) sendECOp(g *ecGroup, op workload.Op) {
	now := r.eng.Now()
	r.seq++
	st := r.freeStates.Get()
	*st = reqState{
		seq:       r.seq,
		write:     op.Write,
		group:     g,
		issue:     now,
		lastIssue: now,
		userLPN:   op.LPN,
	}
	st.span = r.tracer.StartRequest(st.seq, reqKind(op.Write), now)
	st.span.Annotate(trace.Int("lpn", int64(op.LPN)), trace.Int("volume", int64(g.idx)))
	r.reqs[st.seq] = st
	g.inflight++
	r.watchTimeout(st.seq)
	r.sendEC(st)
}

// sendEC fans one logical request out to its chunk holders. A write
// updates the data chunk and all m parity chunks (the RS small-write
// amplification); a read goes to the data chunk's holder, and the switch
// steers it to a survivor for degraded reconstruction when that holder
// is collecting or failed. Every holder stores its chunk of stripe s at
// local page s, so all sub-operations share one chunk-local LPN.
func (r *Rack) sendEC(st *reqState) {
	g := st.group
	stripe, pos := g.striper.Stripe(int(st.userLPN))
	st.lpn = uint32(stripe)
	if st.write {
		targets := g.writeHolders(stripe, pos)
		st.ecPending = len(targets)
		r.res.ECSubWrites += int64(len(targets))
		for _, t := range targets {
			r.sendECPacket(st, t, packet.OpWrite)
		}
		return
	}
	home := g.insts[g.striper.DataHolder(stripe, pos)]
	st.homeID = home.id
	st.ecPending = 1
	r.sendECPacket(st, home, packet.OpRead)
}

// sendECPacket emits one sub-operation toward a chunk holder via its
// rack's ToR. Once a ToR failure is detected the client enters through
// another rack of the group instead; that ToR's failover and handoff
// tables route around the dark rack.
func (r *Rack) sendECPacket(st *reqState, inst *instance, op packet.Op) {
	pkt := packet.Packet{
		Op:    op,
		SrcIP: r.clientIP,
		DstIP: inst.server.ip,
		Port:  packet.ReservedPort,
		VSSD:  inst.id,
		LPN:   st.lpn,
		Seq:   st.seq,
	}
	tor := r.torOf(inst.server)
	if r.torDetected[inst.server.rackIdx] {
		for _, alt := range st.group.tors {
			if !alt.Down() {
				tor = alt
				break
			}
		}
	}
	r.clientSend(pkt, tor)
}

// startDegradedRead reconstructs a chunk at a surviving holder: the
// switch steered this read away from its home, so the coordinator
// fetches any k chunks of the stripe (its own local one plus k-1 remote)
// and decodes. Remote fetches charge two network hops each way and the
// source device's channel time; they bypass the remote scheduler queue,
// modeling the priority repair lane real EC stores give chunk fetches.
func (s *server) startDegradedRead(inst *instance, req *sched.Request) {
	r := s.rack
	now := r.eng.Now()
	st := r.reqs[req.Seq]
	if st.dispatched == 0 {
		st.dispatched = now
	}
	st.redirected = true
	st.degraded = true
	r.res.DegradedReads++
	g := st.group
	stripe := int(st.lpn)
	// A degraded read for a crashed-and-re-integrated holder after the
	// group finished healing should no longer exist: the switch
	// rewrites such reads to the replacement and they are served
	// directly. The only legitimate post-heal steering is the
	// replacement itself collecting or unreachable; everything else
	// (excluding requests issued before the last holder's tables were
	// updated) is a straggler — the lifecycle's health check figrl
	// asserts stays at zero. Holders isolated by a dark ToR are not
	// counted: no repair was queued for them, so there is nothing to
	// have re-integrated.
	home, _ := g.holderIndex(st.homeID)
	coord, _ := g.holderIndex(inst.id)
	if g.chunks.Crashed(home) && g.chunks.Reintegrated() && st.issue > g.reintegratedAt {
		rp := g.chunks.Replacement(home)
		if rp < 0 || (g.insts[rp].server.reachable() && !g.insts[rp].v.InGC(now)) {
			r.res.DegradedReadsPostRepair++
		}
	}

	sources, localPlan := g.chunks.Sources(g.readBuf, home, coord, r.serverReachable,
		func(pos int) bool { return g.insts[pos].v.InGC(now) })
	g.readBuf = sources
	if localPlan {
		r.res.LocalDegradedReads++
	} else if len(sources) < g.spec.K {
		// More failures than parity: the stripe cannot be reconstructed
		// right now. Serve the local chunk so the request terminates, and
		// surface the loss in the counters (ec.ErrStripeUnrecoverable is
		// the library-level twin of this path).
		r.res.UnrecoverableReads++
		if len(sources) == 0 {
			sources = append(sources, coord)
		} else {
			sources = sources[:1]
		}
	} else {
		sources = sources[:g.spec.K]
	}
	var recSpan *trace.Span
	if st.span != nil {
		recSpan = st.span.Child("reconstruct", now)
		recSpan.Annotate(trace.Int("sources", int64(len(sources))),
			trace.Int("stripe", int64(stripe)))
		if g.hasLocalParity() {
			plan := "aggregated"
			if localPlan {
				plan = "local_xor"
			}
			recSpan.Annotate(trace.String("plan", plan))
		}
	}
	dr := r.newDegradedRead(degradedRead{
		inst: inst, req: req, stripe: stripe, recSpan: recSpan, remaining: len(sources),
	})
	for i, pos := range sources {
		src := g.insts[pos]
		f := r.newChunkFetch(chunkFetch{dr: dr, src: src})
		if src.server.rackIdx != inst.server.rackIdx {
			f.route = fetchSpine
			// Under the LRC family a global fallback decode still ships
			// aggregates: each remote rack folds its sources into one
			// partial sum locally, and only its first source pays the
			// spine for one chunk.
			if g.hasLocalParity() && g.chunks.RackIn(sources[:i], src.server.rackIdx) {
				f.route = fetchFeed
			}
		}
		if src == inst {
			f.readChunk()
		} else {
			out := r.net.PathLatency(now, 2)
			if f.route != fetchRack {
				out += r.spine.Propagation()
			}
			r.eng.AfterHandler(out, r.lbl.chunkRead, f)
		}
	}
}

// scheduleRepair arms the group's repair pump one monitor period out.
func (r *Rack) scheduleRepair(g *ecGroup) {
	if g.repairArmed {
		return
	}
	g.repairArmed = true
	r.eng.AfterHandler(gcCheckInterval, r.lbl.repairPump, (*repairPumpEvent)(g))
}

// repairPump admits background chunk reconstruction only in the
// switch-observed GC idle window: the repair coordinator reads the ToR's
// per-member GC bits (the same state soft gc_ops consult) and backs off
// while any member collects, so repair traffic never competes with a
// foreground GC episode for the group's channels. With the SLO pacer
// active (Config.RepairSLO) a second gate follows: the claim is cut to
// the pacer's token-sized stripe limit and waits in the spine token lane
// until the AIMD-controlled admission rate matures enough credit, so
// repair also never holds the foreground tail above the SLO target.
func (r *Rack) repairPump(g *ecGroup) {
	g.repairArmed = false
	if g.repairInFlight || g.chunks.Pending() == 0 {
		return
	}
	for _, m := range g.insts {
		if !m.server.reachable() {
			continue
		}
		if r.torOf(m.server).GCStatus(m.id) {
			r.res.RepairDelayed++
			r.scheduleRepair(g)
			return
		}
	}
	// Tasks are enqueued in batches of at most repairBatchStripes, so
	// the unpaced claim limit is a no-op split; the pacer cuts it down
	// to its token size.
	limit := repairBatchStripes
	if r.pacer != nil {
		limit = r.pacer.batchStripes()
	}
	task, ok := g.chunks.Claim(limit)
	if !ok {
		return
	}
	g.repairInFlight = true
	if r.pacer == nil {
		r.runRepairTask(g, task, 0)
		return
	}
	// A zero-spine local-XOR plan (LRC, in-rack adopter, healthy rack)
	// moves no cross-rack bytes, so it claims no spine tokens: it runs
	// immediately instead of idling the rack behind the admission lane.
	if t := g.chunks.Target(task.Holder); t >= 0 && g.insts[t].server.reachable() {
		if _, local, _ := g.repairPlan(task.Holder, t); local {
			r.runRepairTask(g, task, 0)
			return
		}
	}
	// The token charge is the rebuilt chunk volume; the GC idle window
	// was checked at claim time and the grant re-validates liveness in
	// runRepairTask, like any task that waited in a queue.
	charge := int64(task.Stripes) * int64(r.cfg.Geometry.PageSize)
	r.pacer.admit(charge, r.newRepairStep(repairStep{kind: repairGrant, g: g, task: task, charge: charge}))
}

// runRepairTask rebuilds one batch of a lost holder's chunks: chunk
// reads spread over the survivors — under RS, k of them, intra-rack
// first, spilling onto the metered cross-rack link only when the
// adopter's rack cannot supply k; under LRC, either the rack-local XOR
// set (zero spine bytes) or an aggregated global plan where each remote
// rack ships one combined batch instead of one per survivor — the
// decode, and the programs that land the rebuilt chunks on the adopting
// holder. Channel time is charged in bulk per batch; spine crossings
// serialize their batch bytes through the cluster link. charged is the
// admission charge the pacer already collected for this task (0 when
// unpaced or admitted via the token-free local plan); settle reconciles
// it against the actual spine bytes.
func (r *Rack) runRepairTask(g *ecGroup, task ec.RepairTask, charged int64) {
	now := r.eng.Now()
	// batchBytes is the spine cost of one batch crossing below; the
	// settle calls reconcile the admission charge against the actual
	// cross-rack fan-out once known (or the task dies without moving
	// anything).
	batchBytes := int64(task.Stripes) * int64(r.cfg.Geometry.PageSize)
	// The adopter is pinned per holder: the first batch picks it and
	// every later batch (and the final re-integration) targets the same
	// member. If it has since become unreachable, the batches already
	// programmed onto it are gone with it, so the holder's repair
	// restarts from scratch onto a fresh adopter — counting the dead
	// adopter's batches toward completion would register a replacement
	// that never received the early chunks.
	target := g.chunks.Target(task.Holder)
	if target < 0 || !g.insts[target].server.reachable() {
		g.repairInFlight = false
		if r.pacer != nil {
			r.pacer.settle(charged, 0) // refund: nothing moved
		}
		if next := g.chunks.Adopter(task.Holder, r.serverReachable); next >= 0 {
			r.enqueueHolderRepair(g, task.Holder, next)
		}
		// With no reachable member left there is nothing to rebuild
		// onto; the unrecoverable-read counter exposes the loss.
		return
	}
	adopter := g.insts[target]
	sources, localPlan, cross := g.repairPlan(task.Holder, target)
	if !localPlan && len(sources) < g.spec.K {
		// Unrecoverable with the current survivors: drop the task; the
		// unrecoverable-read counter already exposes the data loss.
		g.repairInFlight = false
		if r.pacer != nil {
			r.pacer.settle(charged, 0) // refund: nothing moved
		}
		r.scheduleRepair(g)
		return
	}

	// One always-kept repair span per batch; the key folds group and
	// holder so every holder's batches share one Perfetto row.
	sp := r.tracer.StartSpan("repair", "repair",
		uint64(g.idx)*64+uint64(task.Holder), now)
	sp.Annotate(trace.Int("group", int64(g.idx)), trace.Int("holder", int64(task.Holder)),
		trace.Int("first_stripe", int64(task.FirstStripe)),
		trace.Int("stripes", int64(task.Stripes)))

	var end sim.Time
	readDur := sim.Time(task.Stripes) * r.cfg.Device.ReadPage
	for _, pos := range sources {
		chs := g.insts[pos].v.Channels()
		if _, e := g.insts[pos].server.dev.OccupyChannel(chs[task.FirstStripe%len(chs)], readDur); e > end {
			end = e
		}
	}
	// Each batch crossing the spine is metered on the shared link: one
	// per remote source, or under LRC one aggregate per remote rack,
	// which combines its survivors locally first.
	crossBytes := int64(cross) * batchBytes
	for range cross {
		if _, te := r.spine.CrossFetch(batchBytes, nil); te+r.spine.Propagation() > end {
			end = te + r.spine.Propagation()
		}
	}
	if localPlan {
		r.res.LocalRepairStripes += int64(task.Stripes)
	} else if g.hasLocalParity() && cross > 0 {
		r.res.AggregatedRepairStripes += int64(task.Stripes)
	}
	if r.pacer != nil {
		// Settle the admission charge against the real spine fan-out:
		// extra remote sources become token debt, an all-local batch a
		// refund.
		r.pacer.settle(charged, crossBytes)
	}
	progDur := sim.Time(task.Stripes) * r.cfg.Device.ProgramPage
	achs := adopter.v.Channels()
	if _, e := adopter.server.dev.OccupyChannel(achs[task.FirstStripe%len(achs)], progDur); e > end {
		end = e
	}
	end += sim.Time(task.Stripes)*ecDecodeTime + r.net.PathLatency(now, 2)
	r.eng.AtHandler(end, r.lbl.repairDone,
		r.newRepairStep(repairStep{kind: repairDone, g: g, task: task, sp: sp, crossBytes: crossBytes}))
}

// repairTaskDone lands one rebuilt batch (ec.repair_done): the batch's
// span closes, a holder whose last batch this was re-integrates, and the
// group's pump re-arms for the next batch.
func (r *Rack) repairTaskDone(g *ecGroup, task ec.RepairTask, sp *trace.Span, crossBytes int64, now sim.Time) {
	sp.Annotate(trace.Int("cross_bytes", crossBytes))
	sp.Finish(now)
	r.res.RepairCompletionTime = now
	if g.chunks.Done(task) {
		r.reintegrate(g, task.Holder)
	}
	g.repairInFlight = false
	r.scheduleRepair(g)
}

// reintegrate closes the repair loop for one fully rebuilt holder: the
// member the repair rebuilt onto becomes the holder's
// replacement. The client's volume map updates immediately (new reads
// and writes go to the replacement directly), and after the
// control-plane propagation delay every ToR serving the group updates
// its stripe table: an adopting member is swapped in for the dead one
// (switchsim.ReplaceStripeMember), while a catch-up repair that landed
// the chunks back on the revived original re-registers the holder under
// its own id (switchsim.RestoreStripeMember). Either way the failover
// and remote-dead entries are cleared, so post-repair reads stop paying
// the degraded-reconstruction cost.
func (r *Rack) reintegrate(g *ecGroup, holder int) {
	// Register the member the repair actually rebuilt onto — never
	// recomputed, so the replacement always holds the chunks.
	adopter := g.insts[g.chunks.Target(holder)]
	restored := adopter == g.insts[holder]
	oldID, newID := g.insts[holder].id, adopter.id
	// The control-plane updates below are deferred by propagation delay;
	// if the holder is lost again meanwhile (its repair generation moves
	// on), the stale registrations must not land.
	gen := g.chunks.Gen(holder)
	fresh := func() bool { return g.chunks.Gen(holder) == gen }
	last := r.control("ec.reintegrate", adopter.server.rackIdx, g.tors, func(tor *switchsim.Switch) {
		if !fresh() {
			return
		}
		tor.RegisterDest(newID, adopter.server.ip)
		if restored {
			tor.RestoreStripeMember(oldID)
		} else {
			tor.ReplaceStripeMember(oldID, newID)
		}
	})
	// The holder counts as re-integrated once the slowest ToR has the
	// replacement installed; reads issued after this instant are served
	// directly everywhere.
	r.eng.AfterNamed(last, "ec.reintegrate", func(sim.Time) {
		if !fresh() {
			return
		}
		g.chunks.Reintegrate(holder)
		g.reintegratedAt = r.eng.Now()
		// Every holder stores one chunk of each of the group's
		// usedStripes stripes, so one completed holder re-integrates
		// exactly that many.
		r.res.ReintegratedStripes += int64(g.usedStripes)
		mode := "replacement"
		if restored {
			r.res.RestoredHolders++
			mode = "restored"
		}
		r.tracer.Instant("repair", "reintegrate", r.eng.Now(),
			trace.Int("group", int64(g.idx)), trace.Int("holder", int64(holder)),
			trace.String("mode", mode))
	})
}
