package ec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// spreadGroup is group 0 of RS(4,2), or LRC(4,2) when local, under
// spread placement on 3 racks of 6 servers: its chunk map and each
// position's server and rack.
func spreadGroup(local bool) (m ChunkMap, servers, racks []int) {
	spec := Spec{K: 4, M: 2}
	p := Placer{Servers: 6, Racks: 3, Width: spec.Width(), Mode: PlaceSpread, MaxPerRack: spec.M}
	servers = p.Place(0)
	if local {
		servers = append(servers, p.LocalParityServers(0, servers)...)
	}
	racks = make([]int, len(servers))
	for i, s := range servers {
		racks[i] = p.RackOf(s)
	}
	return NewChunkMap(spec, servers, p.RackOf), servers, racks
}

// stripeChunks encodes one random stripe and lays it out by position:
// position i < k+m holds shard i, a local parity position the XOR of
// its rack's global shards.
func stripeChunks(t *testing.T, codec *Codec, racks []int, rng *rand.Rand) [][]byte {
	spec := codec.Spec()
	data := make([][]byte, spec.K)
	for i := range data {
		data[i] = make([]byte, 32)
		rng.Read(data[i])
	}
	parity, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	chunks := append(data, parity...)
	for p := spec.Width(); p < len(racks); p++ {
		chunks = append(chunks, rackXOR(t, chunks[:spec.Width()], racks, racks[p]))
	}
	return chunks
}

// rackXOR is the XOR of the global chunks in rack.
func rackXOR(t *testing.T, global [][]byte, racks []int, rack int) []byte {
	var in [][]byte
	for i, c := range global {
		if racks[i] == rack {
			in = append(in, c)
		}
	}
	out, err := XORParity(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceRecoverable is the durability rule core's Result applied
// per group before ChunkMap.Recoverable: count the global chunks whose
// server is alive; under LRC also a dead global member that is its
// rack's only casualty.
func referenceRecoverable(spec Spec, racks []int, dead []bool) bool {
	width := spec.Width()
	alive := 0
	if len(racks) > width {
		deadByRack := make(map[int]int)
		deadGlobalByRack := make(map[int]int)
		for i := range racks {
			if dead[i] {
				deadByRack[racks[i]]++
				if i < width {
					deadGlobalByRack[racks[i]]++
				}
			}
		}
		for i := 0; i < width; i++ {
			rack := racks[i]
			if !dead[i] || (deadByRack[rack] == 1 && deadGlobalByRack[rack] == 1) {
				alive++
			}
		}
	} else {
		for i := range racks {
			if !dead[i] {
				alive++
			}
		}
	}
	return alive >= spec.K
}

// rebuild recomputes position lost's chunk from a plan's sources: the
// XOR of their chunks for a local plan, otherwise an RS decode of the
// stripe from its first k sources (a lost local parity is then the XOR
// of its rack's decoded global chunks).
func rebuild(t *testing.T, codec *Codec, chunks [][]byte, racks []int, lost int, src []int, local bool) []byte {
	if local {
		in := make([][]byte, len(src))
		for i, p := range src {
			in[i] = chunks[p]
		}
		out, err := XORParity(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	width := codec.Spec().Width()
	shards := make([][]byte, width)
	for _, p := range src[:codec.Spec().K] {
		if p >= width {
			t.Fatalf("global plan %v uses local parity position %d", src, p)
		}
		shards[p] = chunks[p]
	}
	if err := codec.Reconstruct(shards); err != nil {
		t.Fatalf("plan %v: %v", src, err)
	}
	if lost < width {
		return shards[lost]
	}
	return rackXOR(t, shards, racks, racks[lost])
}

// TestChunkMapPlansAgainstCodec runs every subset of dead positions of
// RS(4,2) and LRC(4,2) under spread placement on 3 racks of 6 servers
// through the chunk map and checks its plans against the codec:
//   - Recoverable equals the reference durability rule;
//   - every degraded-read plan (Sources) with k sources, or a local
//     plan, decodes the lost chunk byte-identically, and one with fewer
//     than k is short because fewer than k global chunks are up;
//   - rebuilding the lost positions one plan at a time (Adopter, then
//     RepairPlan), each rebuilt chunk rejoining as a source, restores
//     every chunk byte-identically exactly when Recoverable holds, and
//     each global plan ships the closed-form cross-rack chunk count: one
//     per remote source under RS, one per remote rack under LRC.
func TestChunkMapPlansAgainstCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, local := range []bool{false, true} {
		m, servers, racks := spreadGroup(local)
		spec := m.spec
		codec, err := NewCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := len(servers)
		t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
			var recoverable int
			for mask := 0; mask < 1<<n; mask++ {
				chunks := stripeChunks(t, codec, racks, rng)
				dead := make([]bool, n)
				for p := range dead {
					dead[p] = mask&(1<<p) != 0
				}
				down := func(s int) bool {
					for p, srv := range servers {
						if srv == s {
							return dead[p]
						}
					}
					t.Fatalf("server %d holds no chunk", s)
					return false
				}
				up := func(s int) bool { return !down(s) }
				got := m.Recoverable(down)
				if want := referenceRecoverable(spec, racks, dead); got != want {
					t.Fatalf("dead %v: Recoverable = %v, reference rule %v", dead, got, want)
				}
				if got {
					recoverable++
				}
				checkSources(t, &m, codec, chunks, racks, dead, up)
				if restored := rebuildAll(t, &m, codec, chunks, racks, dead); restored != got {
					t.Fatalf("dead %v: plan-by-plan rebuild restored all = %v, Recoverable = %v", dead, restored, got)
				}
			}
			t.Logf("%d of %d loss patterns recoverable", recoverable, 1<<n)
		})
	}
}

// checkSources checks every degraded-read plan for a dead global
// position at every live coordinator, with no holder collecting and
// with the odd positions collecting.
func checkSources(t *testing.T, m *ChunkMap, codec *Codec, chunks [][]byte, racks []int, dead []bool, up func(int) bool) {
	spec := codec.Spec()
	liveGlobal := 0
	for p := 0; p < spec.Width(); p++ {
		if !dead[p] {
			liveGlobal++
		}
	}
	var buf []int
	for _, busy := range []func(int) bool{
		func(int) bool { return false },
		func(p int) bool { return p%2 == 1 },
	} {
		for lost := 0; lost < spec.Width(); lost++ {
			if !dead[lost] {
				continue
			}
			for coord := range dead {
				if dead[coord] {
					continue
				}
				src, local := m.Sources(buf, lost, coord, up, busy)
				buf = src
				for i, p := range src {
					if dead[p] || p == lost || (i > 0 && p == coord) {
						t.Fatalf("dead %v lost %d coord %d: plan %v uses position %d", dead, lost, coord, src, p)
					}
				}
				if !local && len(src) < spec.K {
					if liveGlobal >= spec.K {
						t.Fatalf("dead %v lost %d coord %d: %d sources with %d global chunks up", dead, lost, coord, len(src), liveGlobal)
					}
					continue
				}
				if !bytes.Equal(rebuild(t, codec, chunks, racks, lost, src, local), chunks[lost]) {
					t.Fatalf("dead %v lost %d coord %d: plan %v (local %v) decodes the wrong chunk", dead, lost, coord, src, local)
				}
			}
		}
	}
}

// rebuildAll repairs the dead positions one plan at a time until no
// plan makes progress and reports whether every position was restored.
func rebuildAll(t *testing.T, m *ChunkMap, codec *Codec, chunks [][]byte, racks []int, dead []bool) bool {
	spec := codec.Spec()
	lost := append([]bool(nil), dead...)
	pos := make(map[int]int, len(m.chunks))
	for p, c := range m.chunks {
		pos[c.server] = p
	}
	up := func(s int) bool { return !lost[pos[s]] }
	var buf []int
	for progress := true; progress; {
		progress = false
		for p := range lost {
			if !lost[p] {
				continue
			}
			adopter := m.Adopter(p, up)
			if adopter < 0 {
				continue
			}
			src, local, cross := m.RepairPlan(buf, p, adopter, up)
			buf = src
			if !local && len(src) < spec.K {
				continue
			}
			if want := crossOracle(local, spec, racks, src, racks[adopter], len(racks) > spec.Width()); cross != want {
				t.Fatalf("dead %v: plan %v onto %d ships %d chunks cross-rack, oracle %d", dead, src, adopter, cross, want)
			}
			if !bytes.Equal(rebuild(t, codec, chunks, racks, p, src, local), chunks[p]) {
				t.Fatalf("dead %v: repair plan %v (local %v) for %d rebuilds the wrong chunk", dead, src, local, p)
			}
			lost[p], progress = false, true
		}
	}
	for _, l := range lost {
		if l {
			return false
		}
	}
	return true
}

// crossOracle is the closed-form cross-rack chunk count of a repair
// plan whose rebuilt chunk lands in rack home: none for a local XOR
// plan; k minus the sources in home under RS; under LRC's per-rack
// aggregation, one per remote rack the plan contacts.
func crossOracle(local bool, spec Spec, racks, src []int, home int, lrc bool) int {
	if local {
		return 0
	}
	remote := map[int]bool{}
	inHome := 0
	for _, p := range src {
		if racks[p] == home {
			inHome++
		} else {
			remote[racks[p]] = true
		}
	}
	if lrc {
		return len(remote)
	}
	return spec.K - inHome
}

// TestChunkMapRepairLifecycle walks one holder through crash, adopter
// repair, revival catch-up and re-integration, checking the state each
// query reads.
func TestChunkMapRepairLifecycle(t *testing.T) {
	m, servers, _ := spreadGroup(false)
	failed := map[int]bool{}
	up := func(s int) bool { return !failed[s] }
	down := func(s int) bool { return failed[s] }
	idle := func(int) bool { return false }

	failed[servers[0]] = true
	adopter := m.Adopter(0, up)
	if adopter != 1 {
		t.Fatalf("RS adopter of 0 = %d, want the next reachable position 1", adopter)
	}
	m.Lose(0, servers[0])
	m.Enqueue(0, adopter, 8, 4)
	if !m.Crashed(0) || m.Target(0) != adopter || m.Reintegrated() {
		t.Fatalf("after loss: crashed %v target %d reintegrated %v", m.Crashed(0), m.Target(0), m.Reintegrated())
	}
	m.Reintegrate(0)
	if m.Replacement(0) != adopter || !m.Reintegrated() {
		t.Fatalf("after repair: replacement %d reintegrated %v", m.Replacement(0), m.Reintegrated())
	}

	// The server returns blank: a catch-up repair pins the holder itself,
	// which is no source while it catches up.
	failed[servers[0]] = false
	m.Enqueue(0, 0, 8, 4)
	if src, _ := m.Sources(nil, 1, 2, up, idle); contains(src, 0) {
		t.Fatalf("catching-up position 0 serves a read: %v", src)
	}
	if src, _, _ := m.RepairPlan(nil, 1, 2, up); contains(src, 0) {
		t.Fatalf("catching-up position 0 feeds a repair: %v", src)
	}
	if !m.Recoverable(down) {
		t.Fatal("no server is down, yet the group is unrecoverable")
	}
	m.Reintegrate(0)
	if m.Replacement(0) != 0 || !m.Reintegrated() {
		t.Fatalf("after catch-up: replacement %d reintegrated %v", m.Replacement(0), m.Reintegrated())
	}
	if src, _ := m.Sources(nil, 1, 2, up, idle); !contains(src, 0) {
		t.Fatalf("restored position 0 serves no read: %v", src)
	}

	// Losing the adopter's server drops only a replacement it holds;
	// losing the restored holder's server drops its own.
	m.Enqueue(3, 4, 8, 4)
	m.Reintegrate(3)
	m.Lose(3, servers[5])
	if m.Replacement(3) != 4 || m.Crashed(3) {
		t.Fatalf("an unrelated server's loss changed position 3: replacement %d crashed %v", m.Replacement(3), m.Crashed(3))
	}
	m.Lose(3, servers[4])
	if m.Replacement(3) != -1 || m.Crashed(3) {
		t.Fatalf("losing the replacement's server: replacement %d crashed %v", m.Replacement(3), m.Crashed(3))
	}
	m.Lose(0, servers[0])
	if m.Replacement(0) != -1 {
		t.Fatalf("losing the restored holder's server kept replacement %d", m.Replacement(0))
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// BenchmarkChunkMapPlan times one degraded-read plan (Sources) and one
// repair plan (RepairPlan) for a dead position on a warm map, RS(4,2)
// and LRC(4,2) under spread placement; LRC's coordinator shares the
// dead holder's rack, so its read takes the local XOR plan. Plans
// append to a reused buffer, so the benchmark fails if a plan allocates.
func BenchmarkChunkMapPlan(b *testing.B) {
	for _, local := range []bool{false, true} {
		name := "RS"
		if local {
			name = "LRC"
		}
		b.Run(name, func(b *testing.B) {
			m, servers, racks := spreadGroup(local)
			dead := servers[0]
			up := func(s int) bool { return s != dead }
			busy := func(p int) bool { return p == 3 }
			coord := 1
			for racks[coord] != racks[0] {
				coord++
			}
			adopter := m.Adopter(0, up)
			var buf []int
			plan := func() {
				var ok bool
				buf, ok = m.Sources(buf, 0, coord, up, busy)
				if ok != local {
					b.Fatalf("Sources local = %v", ok)
				}
				buf, ok, _ = m.RepairPlan(buf, 0, adopter, up)
				if len(buf) == 0 || (!ok && len(buf) < m.spec.K) {
					b.Fatalf("RepairPlan gave %v", buf)
				}
			}
			plan()
			// AllocsPerRun averages over its runs, so a stray runtime
			// malloc cannot fail the gate, but one per plan does.
			if n := testing.AllocsPerRun(1000, plan); n > 0 {
				b.Fatalf("a warm plan allocates %v objects, want 0", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan()
			}
		})
	}
}
