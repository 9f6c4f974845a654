package core

import (
	"runtime"
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
	"rackblox/internal/workload"
)

// datapathAllocBudget is what one foreground request may allocate once
// the rack is warm: nothing. Its reqState, every hop, pipeline pass,
// queue entry, device completion and Hermes message is recycled.
const datapathAllocBudget = 0

// TestDatapathSteadyStateAllocs is the CI datapath allocation gate. It
// warms a DefaultConfig rack with a short run, then drives single
// foreground reads and writes of one pair end to end — client, ToR,
// server queue, DRAM or flash, Hermes replication for writes, and back
// through the ToR — and asserts the allocations per completed request.
// Counts are deterministic, so a closure creeping back onto the hot path
// fails here exactly, where a timing threshold would flake.
func TestDatapathSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200 * sim.Millisecond
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run() // warm: free lists, maps, recorder blocks
	pr := r.pairs[0]
	keys := uint32(r.Keyspace())
	for _, tc := range []struct {
		name      string
		write     bool
		completed *int64
	}{
		{"read", false, &r.completedReads},
		{"write", true, &r.completedWrites},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lpn uint32
			one := func() {
				// Stride through the keyspace so writes keep reaching
				// flash through the cache's flusher.
				lpn = (lpn + 7919) % keys
				r.send(pr, workload.Op{LPN: lpn, Write: tc.write})
				r.eng.Run()
			}
			for i := 0; i < 500; i++ {
				one()
			}
			const runs = 500
			before := *tc.completed
			avg := testing.AllocsPerRun(runs, one)
			// AllocsPerRun makes one extra warm-up call.
			if got := *tc.completed - before; got != runs+1 {
				t.Fatalf("%d %ss completed, want %d", got, tc.name, runs+1)
			}
			t.Logf("%.0f allocations per steady-state foreground %s", avg, tc.name)
			if avg > datapathAllocBudget {
				t.Errorf("steady-state foreground %s allocates %.0f objects, want <= %d (everything is recycled)",
					tc.name, avg, datapathAllocBudget)
			}
		})
	}
}

// TestECSteadyStateAllocs extends the datapath gate to erasure-coded
// volumes: on a warm, healthy LRC(4,2) rack a single logical read (one
// chunk holder) and a single write (its data, parity and local parity
// holders) each allocate nothing. The write fan-out's holder list comes
// from per-group scratch, not a fresh slice per write.
func TestECSteadyStateAllocs(t *testing.T) {
	cfg := lrcConfig()
	cfg.Duration = 100 * sim.Millisecond
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run() // warm
	g := r.groups[0]
	keys := uint32(g.usedStripes * g.spec.K)
	for _, tc := range []struct {
		name      string
		write     bool
		completed *int64
	}{
		{"read", false, &r.completedReads},
		{"write", true, &r.completedWrites},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lpn uint32
			one := func() {
				lpn = (lpn + 7919) % keys
				r.sendECOp(g, workload.Op{LPN: lpn, Write: tc.write})
				r.eng.Run()
			}
			for i := 0; i < 500; i++ {
				one()
			}
			const runs = 500
			before := *tc.completed
			avg := testing.AllocsPerRun(runs, one)
			if got := *tc.completed - before; got != runs+1 {
				t.Fatalf("%d EC %ss completed, want %d", got, tc.name, runs+1)
			}
			t.Logf("%.0f allocations per steady-state EC %s", avg, tc.name)
			if avg > datapathAllocBudget {
				t.Errorf("steady-state EC %s allocates %.0f objects, want <= %d (everything is recycled)",
					tc.name, avg, datapathAllocBudget)
			}
		})
	}
}

// TestGCBurstAllocs is the GC path's allocation gate. On a warm rack it
// drives whole GC bursts of one instance — host writes that leave
// reclaimable blocks, startGCBurst's collection and channel
// reservations, and the pooled gc.burst_end event that closes the
// episode, tells the ToR and re-pumps the server — and asserts they
// allocate nothing, both for a hardware-isolated vSSD collecting its own
// FTL and for a software-isolated one collecting with its channel group.
func TestGCBurstAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		software bool
	}{
		{"ftl", false},
		{"group", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SoftwareIsolated = tc.software
			cfg.Duration = 100 * sim.Millisecond
			r, err := NewRack(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Run() // warm
			inst := r.pairs[0].primary
			if (inst.group != nil) != tc.software {
				t.Fatalf("instance group = %v, want software isolation %v", inst.group, tc.software)
			}
			ftls := []*ssd.FTL{inst.v.FTL}
			if inst.group != nil {
				ftls = ftls[:0]
				for _, m := range inst.group.Members {
					ftls = append(ftls, m.FTL)
				}
			}
			var lpn int
			one := func() {
				// A few overwrites per burst keep victims available
				// without draining the free blocks the bursts restore.
				for _, f := range ftls {
					for i := 0; i < 8; i++ {
						lpn = (lpn + 7919) % f.LogicalPages()
						if _, err := f.Write(lpn); err != nil {
							panic(err)
						}
					}
				}
				inst.lastGCType = packet.GCRegular // one burst per episode
				r.startGCBurst(inst, 1)
				r.eng.Run()
			}
			for i := 0; i < 200; i++ {
				one()
			}
			const runs = 200
			before := inst.gcEvents
			avg := testing.AllocsPerRun(runs, one)
			// AllocsPerRun makes one extra warm-up call.
			if got := inst.gcEvents - before; got != runs+1 {
				t.Fatalf("%d GC bursts ran, want %d", got, runs+1)
			}
			if inst.v.InGC(r.eng.Now()) {
				t.Fatal("burst still open after its end event")
			}
			t.Logf("%.0f allocations per warm GC burst", avg)
			if avg > 0 {
				t.Errorf("a warm GC burst allocates %.0f objects, want 0", avg)
			}
		})
	}
}

// repairAllocBudget bounds the mallocs per attempted request over a
// whole Rack.Run of the repair workload: amortized growth of the request
// map, the free lists' slabs and recorder blocks, and the cold failure
// and re-integration paths. Request states, degraded-read fan-out,
// repair batches, pacer ticks and grants, and spine wakeups are all
// recycled.
const repairAllocBudget = 1

// repairGateConfig is TestRepairPathAllocs' run: LRC(4,2) on 3x6 with
// an 80 MB/s SLO-paced spine, a server crash, its revival, and a rack
// crash.
func repairGateConfig() Config {
	cfg := lrcConfig()
	cfg.CrossRackMBps = 80
	cfg.Device = flash.ProfileOptane()
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.Workload.WriteFrac = 0.2
	cfg.Workload.MeanGap = 400 * sim.Microsecond
	cfg.RepairSLO = RepairSLO{TargetP99: 6400 * sim.Microsecond}
	cfg.Warmup = 60 * sim.Millisecond
	cfg.Duration = 400 * sim.Millisecond
	cfg.Scenario = []Event{
		FailServer(0, 60*sim.Millisecond),
		ReviveServer(0, 150*sim.Millisecond),
		FailRack(0, 300*sim.Millisecond),
	}
	return cfg
}

// TestRepairPathAllocs is the CI gate for the background repair and
// degraded-read paths: three racks of six under LRC(4,2) on a scarce,
// SLO-paced spine, with a server crash (rack-local XOR repair), its
// revival (catch-up repair) and a whole-rack crash (aggregated
// cross-rack repair, paced spine, degraded reads). It counts every
// malloc over Rack.Run, so a closure or a per-call slice on any of those
// paths shows up here as a deterministic rise per request.
func TestRepairPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation gate")
	}
	r, err := NewRack(repairGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := r.Run()
	runtime.ReadMemStats(&m1)

	if res.LocalRepairStripes == 0 || res.AggregatedRepairStripes == 0 || res.DegradedReads == 0 {
		t.Fatalf("run did not exercise repair: local=%d aggregated=%d degraded reads=%d",
			res.LocalRepairStripes, res.AggregatedRepairStripes, res.DegradedReads)
	}
	attempted := int64(res.Recorder.Len()) + res.LostRequests
	perReq := float64(m1.Mallocs-m0.Mallocs) / float64(attempted)
	t.Logf("%.2f mallocs per attempted request over %d requests", perReq, attempted)
	if perReq > repairAllocBudget {
		t.Errorf("repair run allocates %.2f objects per request, want <= %d", perReq, repairAllocBudget)
	}
}
