package switchsim

import (
	"testing"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// FuzzStripeTableReplay drives a two-rack stripe group with a
// fuzzer-chosen sequence of control-plane mutations — failovers,
// remote-dead marks, replacements, ToR power cycles with full table
// replay — interleaved with data-plane reads, and checks the routing
// invariants that the recovery lifecycle depends on:
//
//   - the switch never panics and never duplicates a packet;
//   - a forwarded read always targets a registered member's address;
//   - a read for a replaced member is never forwarded to the old id;
//   - packets never exceed the handoff TTL.
func FuzzStripeTableReplay(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0x40, 0x01, 0x52, 0x40, 0x63})                   // fail, replace, cycle
	f.Add([]byte{0x70, 0x71, 0x40, 0x41, 0x00, 0x10, 0x20})       // darken both, probe
	f.Add([]byte{0x52, 0x52, 0x63, 0x63, 0x02, 0x12, 0x22})       // double replace+cycle
	f.Add([]byte{0x40, 0x50, 0x60, 0x70, 0x00, 0x30, 0x61, 0x05}) // mixed churn
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 6
		eng := sim.NewEngine()
		var tors [2]*Switch
		var out [2][]packet.Packet
		for j := 0; j < 2; j++ {
			j := j
			tors[j] = New(eng, nil, func(p packet.Packet) { out[j] = append(out[j], p) })
		}
		for j := 0; j < 2; j++ {
			tors[j].ConfigureRack(j, func(pkt packet.Packet, rack int) {
				tors[rack].Process(pkt)
			})
		}
		ids := make([]uint32, n)
		hosts := make([]uint32, n)
		racks := make([]int, n)
		for i := 0; i < n; i++ {
			ids[i] = uint32(500 + i)
			hosts[i] = uint32(0x0A000050 + i)
			racks[i] = i % 2
		}
		replay := func(j int) {
			tors[j].ResetTables()
			for i := 0; i < n; i++ {
				peer := (i + 2) % n // same-rack neighbor
				tors[j].InstallVSSD(ids[i], hosts[i], ids[peer], hosts[peer])
			}
			tors[j].RegisterStripeMembers(ids, racks)
		}
		replay(0)
		replay(1)

		// alias mirrors each ToR's expected replacement table (forgotten
		// when that ToR power-cycles and replays); everReplaced mirrors
		// the control plane's discipline — a replaced member is dead, so
		// it never appears again as either side of a replacement.
		alias := [2]map[uint32]uint32{make(map[uint32]uint32), make(map[uint32]uint32)}
		everReplaced := make(map[uint32]bool)
		for _, b := range ops {
			i := int(b) % n
			j := racks[i]
			switch (b >> 4) % 8 {
			case 0, 1: // data-plane read probe entering the member's home ToR
				tors[j].Process(packet.Packet{
					Op: packet.OpRead, VSSD: ids[i], DstIP: hosts[i], LPN: uint32(b),
				})
			case 2: // write probe
				tors[j].Process(packet.Packet{
					Op: packet.OpWrite, VSSD: ids[i], DstIP: hosts[i], LPN: uint32(b),
				})
			case 3: // GC announcement
				tors[j].Process(packet.Packet{
					Op: packet.OpGC, GC: packet.GCRegular, VSSD: ids[i], SrcIP: hosts[i],
				})
			case 4: // failover to the same-rack neighbor
				tors[j].Failover(ids[i], ids[(i+2)%n])
				tors[1-j].MarkRemoteDead(ids[i])
			case 5: // repair completes: re-register the replacement
				repl := ids[(i+2)%n]
				if !everReplaced[ids[i]] && !everReplaced[repl] {
					everReplaced[ids[i]] = true
					for tj := 0; tj < 2; tj++ {
						tors[tj].ReplaceStripeMember(ids[i], repl)
						if tors[tj].get(ids[i]).replaced {
							alias[tj][ids[i]] = repl
						}
					}
				}
			case 6: // power-cycle the ToR and replay its tables
				tors[j].SetDown(true)
				tors[j].SetDown(false)
				replay(j)
				alias[j] = make(map[uint32]uint32) // replay forgets replacements
			case 7: // darken without revival: packets must be dropped
				tors[j].SetDown(true)
			}
			eng.Run()
		}

		// Final probes: one read per member through its home ToR.
		out[0], out[1] = nil, nil
		for i := 0; i < n; i++ {
			tors[racks[i]].Process(packet.Packet{
				Op: packet.OpRead, VSSD: ids[i], DstIP: hosts[i], LPN: uint32(i),
			})
			eng.Run()
		}
		known := make(map[uint32]uint32, n)
		for i := 0; i < n; i++ {
			known[ids[i]] = hosts[i]
		}
		for j := 0; j < 2; j++ {
			for _, p := range out[j] {
				if p.Op != packet.OpRead {
					continue
				}
				host, ok := known[p.VSSD]
				if !ok {
					t.Fatalf("read forwarded to unknown member %d", p.VSSD)
				}
				if p.DstIP != host {
					t.Fatalf("read for %d forwarded to %x, member lives at %x",
						p.VSSD, p.DstIP, host)
				}
				if _, stale := alias[j][p.VSSD]; stale {
					t.Fatalf("ToR %d forwarded a read to replaced member %d", j, p.VSSD)
				}
				if p.Handoffs > maxHandoffs {
					t.Fatalf("packet exceeded handoff TTL: %d", p.Handoffs)
				}
			}
		}
	})
}
