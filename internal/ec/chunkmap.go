package ec

// ChunkMap is one stripe group's chunk map: for every chunk position —
// the k+m global chunks in placement order, then (LRC) one local parity
// per occupied rack — the server and rack holding it and where its
// repair stands, plus the group's repair queue. It is a plain value.
// Server liveness is an argument of every query, so crashes and ToR
// outages need no update; only the repair lifecycle (Lose, Enqueue,
// Claim, Done, Reintegrate) changes it.
//
// The queries keep three liveness rules apart:
//   - a source (Sources, RepairPlan) is reachable and has no rebuild
//     outstanding — a revived holder catching up is blank;
//   - an adopter (Adopter) only needs to be reachable;
//   - durability (Recoverable) counts crashed servers only — a dark ToR
//     isolates chunks but destroys none.
//
// The map is deliberately passive about repair timing: the rack decides
// *when* a task may run (only in switch-observed GC idle windows, the
// same gate soft-GC requests pass) and calls Claim to take work; the map
// only tracks what remains, and Done reports when a position's last
// stripe has been rebuilt, the moment its replacement can be
// re-registered in the switch stripe tables.
//
// Slice-returning queries append to buf[:0] and return it, so a caller
// that keeps the result as its scratch allocates nothing once warm.
type ChunkMap struct {
	spec   Spec
	chunks []chunk
	// queue is the group's repair FIFO, oldest task first.
	queue    []RepairTask
	repaired int

	// TraceHook, when non-nil, observes queue transitions ("enqueue",
	// "done", "void", "reset") for the flight recorder. Every enqueued
	// stripe reaches exactly one terminal transition — "done" when its
	// repair counted, "void" when a later Enqueue of its position
	// superseded it (whether it was still queued or already claimed) —
	// so queue accounting balances: enqueued stripes == done stripes +
	// void stripes. Pure observer: it must not touch the map.
	TraceHook func(op string, t RepairTask)
}

// chunk is one position's holder and repair state.
type chunk struct {
	server, rack int
	// crashed marks a holder whose server died and whose chunk was
	// queued for repair at least once.
	crashed bool
	// repairing marks a rebuild outstanding right now.
	repairing bool
	// target is the position the latest repair rebuilds onto, pinned
	// from Enqueue on (-1 before the first). A catch-up repair pins the
	// holder itself.
	target int
	// replacement is the position serving the chunk since its last
	// re-integration, -1 for none.
	replacement int
	// left is the stripes of the latest repair not yet rebuilt, 0 once
	// it completed.
	left int
	// gen is the repair generation, advanced by every Enqueue.
	gen int
}

// RepairTask is one unit of background reconstruction: rebuild one
// position's lost chunks over a contiguous batch of stripes onto its
// pinned target. Batching keeps the repair queue (and the simulator's
// event count) proportional to lost capacity, not to individual pages.
type RepairTask struct {
	// Holder is the chunk position being rebuilt.
	Holder int
	// FirstStripe and Stripes delimit the batch.
	FirstStripe int
	Stripes     int
	// Gen is the position's repair generation at enqueue time. A later
	// Enqueue advances the generation, so a task claimed before it
	// reports Done as a stale no-op instead of counting toward the new
	// rebuild.
	Gen int
}

// NewChunkMap maps a group's chunk positions onto servers — the spec's
// Width global positions first, then any local parity positions — each
// in rack rackOf(server).
func NewChunkMap(spec Spec, servers []int, rackOf func(server int) int) ChunkMap {
	m := ChunkMap{spec: spec, chunks: make([]chunk, len(servers))}
	for i, s := range servers {
		m.chunks[i] = chunk{server: s, rack: rackOf(s), target: -1, replacement: -1}
	}
	return m
}

// Crashed reports whether position pos's holder crashed and was queued
// for repair at least once.
func (m *ChunkMap) Crashed(pos int) bool { return m.chunks[pos].crashed }

// Target returns the position the latest repair of pos rebuilds onto,
// or -1 if pos was never queued.
func (m *ChunkMap) Target(pos int) int { return m.chunks[pos].target }

// Replacement returns the position serving pos's chunk since its last
// re-integration, or -1.
func (m *ChunkMap) Replacement(pos int) int { return m.chunks[pos].replacement }

// Reintegrated reports whether the group lost a holder and has no
// rebuild outstanding: every lost holder was rebuilt and re-registered.
func (m *ChunkMap) Reintegrated() bool {
	crashed := false
	for _, c := range m.chunks {
		if c.repairing {
			return false
		}
		crashed = crashed || c.crashed
	}
	return crashed
}

// Lose records that server died holding a copy of position pos's chunk:
// the holder itself, which is marked crashed, or the replacement rebuilt
// for it. A replacement on that server is gone either way.
func (m *ChunkMap) Lose(pos, server int) {
	c := &m.chunks[pos]
	if c.server == server {
		c.crashed = true
	}
	if r := c.replacement; r >= 0 && m.chunks[r].server == server {
		c.replacement = -1
	}
}

// notify reports one queue transition to the trace hook, if installed.
func (m *ChunkMap) notify(op string, t RepairTask) {
	if m.TraceHook != nil {
		m.TraceHook(op, t)
	}
}

// Enqueue starts a fresh rebuild of position pos onto position target:
// it voids pos's queued tasks (the other tasks keep their order),
// advances pos's generation so any task already claimed reports Done
// as stale, pins target and queues [0, stripes) in batch-sized tasks.
// Whatever a previous repair of pos had rebuilt is discarded — the
// chunks it landed are lost or stale.
func (m *ChunkMap) Enqueue(pos, target, stripes, batch int) {
	kept := m.queue[:0]
	for _, t := range m.queue {
		if t.Holder != pos {
			kept = append(kept, t)
		} else {
			// Still-queued work ends here; already-claimed work ends
			// when its stale Done lands.
			m.notify("void", t)
		}
	}
	m.queue = kept
	c := &m.chunks[pos]
	c.gen++
	c.target, c.repairing, c.left = target, true, stripes
	m.notify("reset", RepairTask{Holder: pos, Gen: c.gen})
	batch = max(batch, 1)
	for first := 0; first < stripes; first += batch {
		t := RepairTask{Holder: pos, FirstStripe: first, Stripes: min(batch, stripes-first), Gen: c.gen}
		m.queue = append(m.queue, t)
		m.notify("enqueue", t)
	}
}

// Claim takes at most limit stripes of the oldest queued task, splitting
// the task when it is larger: the claimed prefix is returned and the
// remainder — same position, same generation — stays at the head of the
// queue. The repair pacer uses it to cut enqueued batches down to
// token-sized transfers, so a large batch cannot monopolize the shared
// spine link in one burst. A limit below 1 claims one stripe; ok is
// false when the queue is empty.
func (m *ChunkMap) Claim(limit int) (t RepairTask, ok bool) {
	if len(m.queue) == 0 {
		return RepairTask{}, false
	}
	t = m.queue[0]
	limit = max(limit, 1)
	if t.Stripes <= limit {
		m.queue = m.queue[1:]
		return t, true
	}
	m.queue[0].FirstStripe += limit
	m.queue[0].Stripes -= limit
	t.Stripes = limit
	return t, true
}

// Done records a rebuilt task and reports whether its position is now
// complete — every stripe of its latest Enqueue has been rebuilt — so
// the caller can re-register the replacement. A task of a superseded
// generation is void: it counts toward neither progress nor completion,
// and the trace hook sees the "void" that balances its "enqueue". Done
// is idempotent: reporting a task again after its position completed is
// a no-op, not a second completion.
func (m *ChunkMap) Done(t RepairTask) (complete bool) {
	c := &m.chunks[t.Holder]
	if t.Gen != c.gen {
		m.notify("void", t)
		return false
	}
	if c.left == 0 {
		return false
	}
	m.notify("done", t)
	m.repaired += t.Stripes
	c.left = max(c.left-t.Stripes, 0)
	return c.left == 0
}

// Gen returns position pos's repair generation. The caller can stamp
// deferred completion work with it and drop the work if the generation
// has moved on — the position was lost again.
func (m *ChunkMap) Gen(pos int) int { return m.chunks[pos].gen }

// Pending returns the queued task count.
func (m *ChunkMap) Pending() int { return len(m.queue) }

// RepairedStripes returns how many stripes have been rebuilt.
func (m *ChunkMap) RepairedStripes() int { return m.repaired }

// Reintegrate closes pos's rebuild: its target becomes its replacement.
func (m *ChunkMap) Reintegrate(pos int) {
	c := &m.chunks[pos]
	c.replacement = c.target
	c.repairing = false
}

// localParity reports the LRC family: positions past the global k+m
// are per-rack local parities.
func (m *ChunkMap) localParity() bool { return len(m.chunks) > m.spec.Width() }

// source reports whether position i can feed a reconstruction.
func (m *ChunkMap) source(i int, up func(server int) bool) bool {
	// ROADMAP item 1: a re-integrated replacement is not counted here or in Recoverable yet.
	return up(m.chunks[i].server) && !m.chunks[i].repairing
}

// Recoverable reports whether the group's stripes survive the servers
// failed reports dead: at least k global chunks remain, where under LRC
// a rack's only casualty still counts, since the rack's survivors and
// its local parity rebuild it.
func (m *ChunkMap) Recoverable(failed func(server int) bool) bool {
	alive := 0
	for i := range m.spec.Width() {
		if !failed(m.chunks[i].server) || m.localParity() && m.onlyLossInRack(i, failed) {
			alive++
		}
	}
	return alive >= m.spec.K
}

// onlyLossInRack reports whether no position but i in i's rack failed.
func (m *ChunkMap) onlyLossInRack(i int, failed func(server int) bool) bool {
	for j, c := range m.chunks {
		if j != i && c.rack == m.chunks[i].rack && failed(c.server) {
			return false
		}
	}
	return true
}

// Adopter picks where lost's traffic and rebuilt chunks go: the next
// reachable position in group order, preferring — under LRC — one in
// lost's own rack, which lets the local XOR plan rebuild without spine
// traffic. It returns -1 when no position is reachable.
func (m *ChunkMap) Adopter(lost int, up func(server int) bool) int {
	n := len(m.chunks)
	for pass := 0; pass < 2; pass++ {
		for d := 1; d < n; d++ {
			c := (lost + d) % n
			if (pass == 1 || m.localParity() && m.chunks[c].rack == m.chunks[lost].rack) && up(m.chunks[c].server) {
				return c
			}
		}
	}
	return -1
}

// Sources plans a degraded read of lost's chunk coordinated at position
// coord. Under LRC, when coord shares lost's rack, the rack-local XOR
// plan applies if every other member of the rack is a source; local
// reports it, and every returned position is needed. Otherwise it
// returns every global source (globalPlan led by coord, busy ones last),
// of which any k decode.
func (m *ChunkMap) Sources(buf []int, lost, coord int, up func(server int) bool, busy func(pos int) bool) (src []int, local bool) {
	if m.localParity() && lost != coord && m.chunks[lost].rack == m.chunks[coord].rack {
		if buf, local = m.localPlan(buf, lost, coord, up); local {
			return buf, true
		}
	}
	src, _ = m.globalPlan(buf, coord, -1, up, busy, m.spec.Width())
	return src, false
}

// RepairPlan plans the rebuild of lost's chunk onto position adopter.
// Under LRC, when adopter shares lost's rack, the rack-local XOR plan
// applies if every other member of the rack is a source; local reports
// it. Otherwise it returns k global sources (globalPlan led by adopter)
// and cross, the chunk batches the plan ships over the spine.
func (m *ChunkMap) RepairPlan(buf []int, lost, adopter int, up func(server int) bool) (src []int, local bool, cross int) {
	if m.localParity() && m.chunks[adopter].rack == m.chunks[lost].rack {
		if buf, local = m.localPlan(buf, lost, -1, up); local {
			return buf, true, 0
		}
	}
	src, cross = m.globalPlan(buf, adopter, lost, up, nil, m.spec.K)
	return src, false, cross
}

// globalPlan lists up to limit sources for an RS decode landing at
// position lead: lead's own chunk first when it is a global one other
// than skip (free of network hops), then idle sources in lead's rack,
// then idle remote ones — spilling onto the spine only when the rack
// cannot supply enough — then busy ones (none when busy is nil). Local
// parities never feed the global decode. cross counts the chunk batches
// the plan ships over the spine: one per remote source, or under LRC
// one aggregate per remote rack.
func (m *ChunkMap) globalPlan(buf []int, lead, skip int, up func(server int) bool, busy func(pos int) bool, limit int) (src []int, cross int) {
	width := m.spec.Width()
	home := m.chunks[lead].rack
	src = buf[:0]
	if lead < width && lead != skip {
		src = append(src, lead)
	}
	// One pass per class keeps each class in position order.
	const near, far, collecting = 0, 1, 2
	for class := near; class <= collecting; class++ {
		for j := 0; j < width && len(src) < limit; j++ {
			if j == lead || j == skip || !m.source(j, up) {
				continue
			}
			rack, c := m.chunks[j].rack, near
			switch {
			case busy != nil && busy(j):
				c = collecting
			case rack != home:
				c = far
			}
			if c != class {
				continue
			}
			if rack != home && !(m.localParity() && m.RackIn(src, rack)) {
				cross++
			}
			src = append(src, j)
		}
	}
	return src, cross
}

// RackIn reports whether any of positions sits in rack.
func (m *ChunkMap) RackIn(positions []int, rack int) bool {
	for _, p := range positions {
		if m.chunks[p].rack == rack {
			return true
		}
	}
	return false
}

// localPlan collects the zero-spine LRC plan for lost's chunk: the XOR
// of every other member of its rack (global chunks plus the local
// parity), led by first unless it is -1. It appends to buf[:0] and
// reports whether every one of those members is a source; the returned
// slice is the caller's scratch either way.
func (m *ChunkMap) localPlan(buf []int, lost, first int, up func(server int) bool) ([]int, bool) {
	out := buf[:0]
	if first >= 0 {
		out = append(out, first)
	}
	for j, c := range m.chunks {
		if c.rack != m.chunks[lost].rack || j == first || j == lost {
			continue
		}
		if !m.source(j, up) {
			return out, false
		}
		out = append(out, j)
	}
	return out, true
}
