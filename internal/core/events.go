package core

import (
	"rackblox/internal/ec"
	"rackblox/internal/flash"
	"rackblox/internal/packet"
	"rackblox/internal/replication"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// Datapath and repair events. Every stage a foreground request crosses —
// the client's next issue, each packet hop, the server pump, the DRAM
// and device completions, the write's Hermes round — and every step of
// the background work beside it — a degraded read's chunk fetches and
// decode, the repair pump, the pacer's grant and tick, a batch's
// completion — is a typed sim.Handler that captures nothing.
// Fixed-state events are the object itself (a *pair is its own
// next-issue event, (*pumpEvent)(inst) an instance's pump,
// (*repairPumpEvent)(g) a group's repair pump); events carrying a
// packet, a request, a repair task or a GC burst's target come from the
// Rack's free lists.
// Every list is a sim.FreeList owned by the one engine: it grows a slab
// at a time to the number of objects in flight and recycles LIFO, so
// reuse is deterministic. Each Fire copies its fields out and recycles
// the event before running, because the handler may immediately
// schedule into the same slot. A request's reqState is recycled too,
// under one ownership rule: only r.reqs holds a *reqState; events keep
// the attempt's seq and look the state up, so a stale attempt finds
// nothing once its state was retired. Closures remain only for cold
// paths: failures, re-integration, scenario timers and the GC control
// plane's per-episode messages.

// labels holds the datapath and repair handlers' event labels, interned
// once per rack so scheduling one costs no map lookup.
type labels struct {
	issue, issueEC, timeout sim.Label
	peerLoad                sim.Label
	swRedirect, bounce      sim.Label
	clientSend, deliver     sim.Label
	respond, hermes         sim.Label
	handoff                 sim.Label
	pump, cacheHit, admit   sim.Label
	staleRetry, cacheInsert sim.Label
	gcMonitor, gcOp         sim.Label
	gcOpTimeout, gcNotify   sim.Label
	gcBurstEnd              sim.Label
	chunkRead, chunkBack    sim.Label
	decode                  sim.Label
	repairPump, repairDone  sim.Label
	pacedTick               sim.Label
}

func internLabels(e *sim.Engine) labels {
	return labels{
		issue:       e.Intern("client.issue"),
		issueEC:     e.Intern("client.issue_ec"),
		timeout:     e.Intern("client.timeout"),
		peerLoad:    e.Intern("client.peer_load"),
		swRedirect:  e.Intern("client.sw_redirect"),
		bounce:      e.Intern("client.bounce"),
		clientSend:  e.Intern("net.client_send"),
		deliver:     e.Intern("net.deliver"),
		respond:     e.Intern("net.respond"),
		hermes:      e.Intern("hermes.msg"),
		handoff:     e.Intern("net.handoff"),
		pump:        e.Intern("server.pump"),
		cacheHit:    e.Intern("server.cache_hit"),
		admit:       e.Intern("server.admit"),
		staleRetry:  e.Intern("server.stale_retry"),
		cacheInsert: e.Intern("server.cache_insert"),
		gcMonitor:   e.Intern("gc.monitor"),
		gcOp:        e.Intern("gc.op"),
		gcOpTimeout: e.Intern("gc.op_timeout"),
		gcNotify:    e.Intern("gc.notify"),
		gcBurstEnd:  e.Intern("gc.burst_end"),
		chunkRead:   e.Intern("ec.chunk_read"),
		chunkBack:   e.Intern("ec.chunk_back"),
		decode:      e.Intern("ec.decode"),
		repairPump:  e.Intern("ec.repair_pump"),
		repairDone:  e.Intern("ec.repair_done"),
		pacedTick:   e.Intern("paced.tick"),
	}
}

// Fire issues the pair's next request: a *pair is its own client.issue
// event.
func (pr *pair) Fire(sim.Time) { pr.rack.issue(pr) }

// Fire issues the erasure-coded volume's next request (client.issue_ec).
func (g *ecGroup) Fire(sim.Time) { g.rack.issueEC(g) }

// pumpEvent is an instance's server.pump event.
type pumpEvent instance

func (p *pumpEvent) Fire(sim.Time) {
	inst := (*instance)(p)
	inst.server.pump(inst)
}

// gcMonitor is an instance's periodic gc.monitor check (Algorithm 2).
type gcMonitor instance

func (m *gcMonitor) Fire(sim.Time) {
	inst := (*instance)(m)
	inst.server.rack.monitorGC(inst)
}

// flushDone completes one of an instance's background flash programs.
type flushDone instance

func (f *flushDone) Fire(sim.Time) {
	inst := (*instance)(f)
	inst.server.flushDone(inst)
}

// hopTo says where a packet in flight lands.
type hopTo uint8

const (
	atToR   hopTo = iota // a ToR's ingress: tor.Process
	atNIC                // a server's NIC, forwarded server to server
	fromToR              // the ToR->host link: Rack.arrive
)

// hopEvent is one packet in flight on a link.
type hopEvent struct {
	r   *Rack
	to  hopTo
	pkt packet.Packet
	tor *switchsim.Switch // atToR
	// srv is the receiving server (atNIC), or fromToR's resolved
	// destination (nil for the client).
	srv *server
	// torRack and dstRack are fromToR's sending ToR and destination rack.
	torRack, dstRack int
}

// sendHop puts a packet on a link: it lands d from now, as an event
// labeled l.
func (r *Rack) sendHop(d sim.Time, l sim.Label, h hopEvent) {
	ev := r.freeHops.Get()
	*ev = h
	ev.r = r
	r.eng.AfterHandler(d, l, ev)
}

// Fire lands the packet.
func (ev *hopEvent) Fire(sim.Time) {
	h, r := *ev, ev.r
	r.freeHops.Put(ev)
	switch h.to {
	case atToR:
		h.tor.Process(h.pkt)
	case atNIC:
		h.srv.receive(h.pkt)
	case fromToR:
		r.arrive(h.torRack, h.dstRack, h.srv, h.pkt)
	}
}

// ioKind names the server-side step an ioStep completes.
type ioKind uint8

const (
	ioReadDone  ioKind = iota // a read's data is ready (DRAM or flash): completeRead
	ioAdmit                   // the token bucket admitted a read: readDevice
	ioRetry                   // a stale-replica read retries: startRead
	ioInserted                // a write landed in DRAM: writeInserted
	ioCommitted               // Hermes committed a write: writeCommitted
	ioHermes                  // a Hermes message arrives: deliverHermes
	ioTimeout                 // a request's client timer expires: timeout
)

// ioStep is one in-flight step of a request at a server (or its client
// timer). It is a sim.Handler for timed steps and a replication.OnCommit
// for the write's commit. It names the request by seq, never by its
// reqState (see the ownership rule above).
type ioStep struct {
	r       *Rack
	kind    ioKind
	inst    *instance
	req     *sched.Request
	seq     uint64
	lpn     uint32
	attempt int
	msg     replication.Message
}

// newIO returns a recycled ioStep holding s.
func (r *Rack) newIO(s ioStep) *ioStep {
	ev := r.freeIO.Get()
	*ev = s
	ev.r = r
	return ev
}

func (ev *ioStep) Fire(sim.Time) { ev.run() }

func (ev *ioStep) Committed() { ev.run() }

func (ev *ioStep) run() {
	s, r := *ev, ev.r
	r.freeIO.Put(ev)
	switch s.kind {
	case ioReadDone:
		s.inst.server.completeRead(s.inst, s.req)
	case ioAdmit:
		s.inst.server.readDevice(s.inst, s.req, s.lpn)
	case ioRetry:
		s.inst.server.startRead(s.inst, s.req, s.attempt)
	case ioInserted:
		s.inst.server.writeInserted(s.inst, s.seq)
	case ioCommitted:
		s.inst.server.writeCommitted(s.inst, s.seq)
	case ioHermes:
		r.deliverHermes(s.inst, s.msg)
	case ioTimeout:
		r.timeout(s.seq)
	}
}

// rackScratch returns the rack's per-fault-domain scratch, one nil slot
// per rack. The caller must clear it before returning and may not hold
// it across anything that could call rackScratch again.
func (r *Rack) rackScratch() []*instance {
	if len(r.perRack) < len(r.tors) {
		r.perRack = make([]*instance, len(r.tors))
	}
	return r.perRack
}

// degradedRead is one reconstruction in flight at a coordinator: it
// counts down the chunk fetches still outstanding, then is its own
// ec.decode event.
type degradedRead struct {
	r         *Rack
	inst      *instance // the coordinator
	req       *sched.Request
	stripe    int
	recSpan   *trace.Span
	remaining int
}

// newDegradedRead returns a recycled degradedRead holding d.
func (r *Rack) newDegradedRead(d degradedRead) *degradedRead {
	ev := r.freeReads.Get()
	*ev = d
	ev.r = r
	return ev
}

// Fire completes the decoded read (ec.decode).
func (dr *degradedRead) Fire(now sim.Time) {
	d, r := *dr, dr.r
	r.freeReads.Put(dr)
	d.recSpan.EndAt(now)
	d.inst.server.completeRead(d.inst, d.req)
}

// fetchRoute says how a fetched chunk travels back to the coordinator.
type fetchRoute uint8

const (
	fetchRack  fetchRoute = iota // same rack: two edge hops
	fetchSpine                   // another rack: the metered spine, then the edge hops
	fetchFeed                    // another rack, folded into its shipper's aggregate: a rack-local hop
)

// fetchStep is the stage a chunkFetch's next Fire runs.
type fetchStep uint8

const (
	stepRead     fetchStep = iota // ec.chunk_read lands at the source: read the chunk
	stepReadDone                  // the source's device read completed
	stepShipped                   // the chunk cleared the spine link
	stepBack                      // ec.chunk_back: the chunk reached the coordinator
)

// chunkFetch is one source's chunk on its way to a degraded read's
// coordinator. The same event carries it through every stage — the
// ec.chunk_read request at the source, the device read, the spine
// transfer for a shipped chunk, the ec.chunk_back arrival — since each
// stage schedules exactly the next one.
type chunkFetch struct {
	dr    *degradedRead
	src   *instance
	route fetchRoute
	step  fetchStep
}

// newChunkFetch returns a recycled chunkFetch holding c.
func (r *Rack) newChunkFetch(c chunkFetch) *chunkFetch {
	ev := r.freeFetches.Get()
	*ev = c
	return ev
}

// Fire runs the fetch's next stage.
func (f *chunkFetch) Fire(now sim.Time) {
	switch f.step {
	case stepRead:
		f.readChunk()
	case stepReadDone:
		f.readDone(now)
	case stepShipped:
		r := f.dr.r
		f.sendBack(r.spine.Propagation() + r.net.PathLatency(now, 2))
	case stepBack:
		f.finish()
	}
}

// readChunk reads the stripe's chunk on the source's device.
func (f *chunkFetch) readChunk() {
	addr, err := f.src.v.FTL.Read(f.dr.stripe)
	if err != nil {
		// Chunk outside the preconditioned range still costs one
		// device read on the source's first channel.
		addr = flash.Addr{Channel: f.src.v.Channels()[0]}
	}
	f.step = stepReadDone
	f.src.server.dev.TimeRead(addr, f)
}

// readDone sends the read chunk toward the coordinator. A shipped chunk
// crosses the metered spine link first, then the remote-rack edge hops;
// a survivor that only feeds its rack's partial sum takes a rack-local
// hop to the shipper, no spine bytes.
func (f *chunkFetch) readDone(now sim.Time) {
	dr := f.dr
	r := dr.r
	switch {
	case f.src == dr.inst:
		f.finish()
	case f.route == fetchSpine:
		f.step = stepShipped
		fs, fe := r.spine.CrossFetch(int64(r.cfg.Geometry.PageSize), f)
		if dr.recSpan != nil {
			if fs > now {
				dr.recSpan.Child("spine_wait", now).EndAt(fs)
			}
			dr.recSpan.Child("spine_xfer", fs).EndAt(fe)
		}
	default:
		f.sendBack(r.net.PathLatency(now, 2))
	}
}

// sendBack lands the chunk at the coordinator d from now (ec.chunk_back).
func (f *chunkFetch) sendBack(d sim.Time) {
	f.step = stepBack
	r := f.dr.r
	r.eng.AfterHandler(d, r.lbl.chunkBack, f)
}

// finish recycles the fetch and counts its chunk in; the last one
// schedules the decode.
func (f *chunkFetch) finish() {
	dr := f.dr
	r := dr.r
	r.freeFetches.Put(f)
	dr.remaining--
	if dr.remaining == 0 {
		r.eng.AfterHandler(ecDecodeTime, r.lbl.decode, dr)
	}
}

// repairPumpEvent is a group's ec.repair_pump event.
type repairPumpEvent ecGroup

func (p *repairPumpEvent) Fire(sim.Time) {
	g := (*ecGroup)(p)
	g.rack.repairPump(g)
}

// pacerTickEvent is the rack's paced.tick controller adjustment.
type pacerTickEvent Rack

func (p *pacerTickEvent) Fire(sim.Time) { (*Rack)(p).pacerTick() }

// repairKind names the repair step a repairStep runs.
type repairKind uint8

const (
	repairGrant repairKind = iota // the pacer granted a batch's tokens: runRepairTask
	repairDone                    // a batch's rebuilt chunks landed: repairTaskDone
)

// repairStep is one repair batch waiting for its pacer grant or for its
// completion (ec.repair_done).
type repairStep struct {
	r          *Rack
	kind       repairKind
	g          *ecGroup
	task       ec.RepairTask
	charge     int64       // repairGrant: the tokens the admission charged
	sp         *trace.Span // repairDone: the batch's span
	crossBytes int64       // repairDone: the spine bytes the batch moved
}

// newRepairStep returns a recycled repairStep holding s.
func (r *Rack) newRepairStep(s repairStep) *repairStep {
	ev := r.freeRepairs.Get()
	*ev = s
	ev.r = r
	return ev
}

func (ev *repairStep) Fire(now sim.Time) {
	s, r := *ev, ev.r
	r.freeRepairs.Put(ev)
	switch s.kind {
	case repairGrant:
		r.runRepairTask(s.g, s.task, s.charge)
	case repairDone:
		r.repairTaskDone(s.g, s.task, s.sp, s.crossBytes, now)
	}
}
