package core

import (
	"rackblox/internal/packet"
	"rackblox/internal/replication"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
)

// Hot-path events. Every stage a foreground request crosses — the
// client's next issue, each packet hop, the server pump, the DRAM and
// device completions, the write's Hermes round — is a typed sim.Handler
// that captures nothing. Fixed-state events are the object itself (a
// *pair is its own next-issue event, (*pumpEvent)(inst) an instance's
// pump); events carrying a packet or a request come from the Rack's
// free lists (freeHops, freeIO), which grow lazily to the number of
// events in flight and are owned by the one engine, so recycling is
// deterministic. Each Fire copies its fields out and recycles the event
// before running, because the handler may immediately schedule into the
// same slot. Closures remain for cold paths: failures, repair, and
// control-plane timers.

// labels holds the hot-path handlers' event labels, interned once per
// rack so scheduling one costs no map lookup.
type labels struct {
	issue, issueEC, timeout sim.Label
	clientSend, deliver     sim.Label
	respond, hermes         sim.Label
	pump, cacheHit, admit   sim.Label
	staleRetry, cacheInsert sim.Label
	gcMonitor               sim.Label
}

func internLabels(e *sim.Engine) labels {
	return labels{
		issue:       e.Intern("client.issue"),
		issueEC:     e.Intern("client.issue_ec"),
		timeout:     e.Intern("client.timeout"),
		clientSend:  e.Intern("net.client_send"),
		deliver:     e.Intern("net.deliver"),
		respond:     e.Intern("net.respond"),
		hermes:      e.Intern("hermes.msg"),
		pump:        e.Intern("server.pump"),
		cacheHit:    e.Intern("server.cache_hit"),
		admit:       e.Intern("server.admit"),
		staleRetry:  e.Intern("server.stale_retry"),
		cacheInsert: e.Intern("server.cache_insert"),
		gcMonitor:   e.Intern("gc.monitor"),
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
	// destination (nil for the client and the controller).
	srv *server
	// torRack and dstRack are fromToR's sending ToR and destination rack.
	torRack, dstRack int
	next             *hopEvent // free-list link
}

// sendHop puts a packet on a link: it lands d from now, as an event
// labeled l.
func (r *Rack) sendHop(d sim.Time, l sim.Label, h hopEvent) {
	ev := r.freeHops
	if ev == nil {
		ev = new(hopEvent)
	} else {
		r.freeHops = ev.next
	}
	*ev = h
	ev.r = r
	r.eng.AfterHandler(d, l, ev)
}

// Fire lands the packet.
func (ev *hopEvent) Fire(sim.Time) {
	h, r := *ev, ev.r
	*ev = hopEvent{next: r.freeHops}
	r.freeHops = ev
	switch h.to {
	case atToR:
		h.tor.Process(h.pkt)
	case atNIC:
		h.srv.receive(h.pkt)
	case fromToR:
		r.arrive(h.torRack, h.dstRack, h.srv, h.pkt)
	}
}

// newRequest returns a server queue entry, recycled when one is free.
func (r *Rack) newRequest() *sched.Request {
	if n := len(r.freeReqs); n > 0 {
		req := r.freeReqs[n-1]
		r.freeReqs = r.freeReqs[:n-1]
		return req
	}
	return new(sched.Request)
}

// freeRequest recycles a queue entry once its request has left the
// storage stack: read completion or cancellation, a bounce, or a
// write's dispatch into DRAM. Nothing may use req afterwards.
func (r *Rack) freeRequest(req *sched.Request) {
	*req = sched.Request{}
	r.freeReqs = append(r.freeReqs, req)
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
// for the write's commit.
type ioStep struct {
	r       *Rack
	kind    ioKind
	inst    *instance
	req     *sched.Request
	st      *reqState
	seq     uint64
	lpn     uint32
	attempt int
	msg     replication.Message
	next    *ioStep // free-list link
}

// newIO returns a recycled ioStep holding s.
func (r *Rack) newIO(s ioStep) *ioStep {
	ev := r.freeIO
	if ev == nil {
		ev = new(ioStep)
	} else {
		r.freeIO = ev.next
	}
	*ev = s
	ev.r = r
	return ev
}

func (ev *ioStep) Fire(sim.Time) { ev.run() }

func (ev *ioStep) Committed() { ev.run() }

func (ev *ioStep) run() {
	s, r := *ev, ev.r
	*ev = ioStep{next: r.freeIO}
	r.freeIO = ev
	switch s.kind {
	case ioReadDone:
		s.inst.server.completeRead(s.inst, s.req)
	case ioAdmit:
		s.inst.server.readDevice(s.inst, s.req, s.lpn)
	case ioRetry:
		s.inst.server.startRead(s.inst, s.req, s.attempt)
	case ioInserted:
		s.inst.server.writeInserted(s.inst, s.st, s.seq)
	case ioCommitted:
		s.inst.server.writeCommitted(s.inst, s.st, s.seq)
	case ioHermes:
		r.deliverHermes(s.inst, s.msg)
	case ioTimeout:
		r.timeout(s.seq)
	}
}
