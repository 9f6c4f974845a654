package ssd_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
	"rackblox/internal/vssd"
)

// checkOwnership verifies the FTLs sharing dev against the flash OOB
// area: every mapped LPN points at a valid page, on one of its FTL's
// channels, whose Owner is that LPN, and no two mappings share a page;
// and every valid page on the device is one of those mapped pages, so
// every valid page in an owned or borrowed block maps back to exactly
// one FTL's LPN.
func checkOwnership(t *testing.T, step int, dev *ssd.Device, ftls []*ssd.FTL) {
	t.Helper()
	geo := dev.Geometry()
	arr := dev.Array()
	seen := make(map[int]bool)
	for i, f := range ftls {
		for lpn := 0; lpn < f.LogicalPages(); lpn++ {
			addr, err := f.Read(lpn)
			if errors.Is(err, ssd.ErrUnmapped) {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: ftl %d lpn %d: %v", step, i, lpn, err)
			}
			blk := arr.BlockAt(addr)
			if blk.State[addr.Page] != flash.PageValid {
				t.Fatalf("step %d: ftl %d lpn %d maps to %s page %+v", step, i, lpn, blk.State[addr.Page], addr)
			}
			if got := blk.Owner[addr.Page]; got != int32(lpn) {
				t.Fatalf("step %d: ftl %d lpn %d maps to %+v, whose owner is %d", step, i, lpn, addr, got)
			}
			if !slices.Contains(f.Channels(), addr.Channel) {
				t.Fatalf("step %d: ftl %d lpn %d lives on foreign channel %d", step, i, lpn, addr.Channel)
			}
			ppn := geo.PPN(addr)
			if seen[ppn] {
				t.Fatalf("step %d: page %+v is mapped twice", step, addr)
			}
			seen[ppn] = true
		}
	}
	valid := 0
	for c := range arr.Chips {
		for b := range arr.Chips[c].Blocks {
			blk := &arr.Chips[c].Blocks[b]
			n := 0
			for _, s := range blk.State {
				if s == flash.PageValid {
					n++
				}
			}
			if n != blk.Valid {
				t.Fatalf("step %d: chip %d block %d counts %d valid pages, holds %d", step, c, b, blk.Valid, n)
			}
			valid += n
		}
	}
	if valid != len(seen) {
		t.Fatalf("step %d: %d valid pages on the device, %d mapped: a valid page maps back to no LPN",
			step, valid, len(seen))
	}
}

// TestFTLOwnershipInvariant drives a channel group of two
// software-isolated vSSDs and a hardware-isolated vSSD on one device
// through random host writes, GC bursts, block lending (Rebalance and
// direct Borrow/AcceptBorrowed), group collection and VacateBorrowed,
// and checks the mapping against the pages' owners after every step.
func TestFTLOwnershipInvariant(t *testing.T) {
	geo := flash.Geometry{Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 4096}
	dev, err := ssd.NewDevice(sim.NewEngine(), geo, flash.ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	a, err := vssd.NewSoftwareIsolated(dev, 1, []ssd.ChipRef{{Channel: 0, Chip: 0}, {Channel: 1, Chip: 0}}, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vssd.NewSoftwareIsolated(dev, 2, []ssd.ChipRef{{Channel: 0, Chip: 1}, {Channel: 1, Chip: 1}}, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := vssd.NewChannelGroup(2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	h, err := vssd.NewHardwareIsolated(dev, 3, []int{2, 3}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	vs := []*vssd.VSSD{a, b, h}
	ftls := []*ssd.FTL{a.FTL, b.FTL, h.FTL}
	// collect frees space the way the rack does: a group collects
	// together, a hardware-isolated vSSD alone.
	collect := func(v *vssd.VSSD, target float64, maxBlocks int) {
		if v.Group() != nil {
			v.Group().GroupCollect(target, maxBlocks)
		} else {
			v.FTL.CollectBurst(target, maxBlocks)
		}
	}
	rng := sim.NewRNG(1)
	lent := 0
	var vacated sim.Time
	for step := 0; step < 4000; step++ {
		v := vs[rng.Intn(len(vs))]
		switch op := rng.Intn(20); {
		case op < 14: // host write over 60% of the logical space
			lpn := rng.Intn(v.FTL.LogicalPages() * 6 / 10)
			if _, err := v.FTL.Write(lpn); errors.Is(err, ssd.ErrNoSpace) {
				collect(v, 1, 1)
			} else if err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
		case op < 16:
			collect(v, 0.2+0.4*rng.Float64(), rng.Intn(3))
		case op < 17:
			lent += g.Rebalance()
		case op < 18: // lend directly between the group's members
			from, to := a, b
			if rng.Intn(2) == 0 {
				from, to = b, a
			}
			blocks := from.FTL.Borrow(1 + rng.Intn(3))
			lent += len(blocks)
			to.FTL.AcceptBorrowed(blocks)
		case op < 19: // a member hands its loans back to the other
			from, to := a, b
			if rng.Intn(2) == 0 {
				from, to = b, a
			}
			returned, dur := from.FTL.VacateBorrowed()
			vacated += dur
			to.FTL.GiveBack(returned)
		default:
			g.GroupCollect(0.2+0.4*rng.Float64(), rng.Intn(3))
		}
		checkOwnership(t, step, dev, ftls)
	}
	if lent == 0 || vacated == 0 || a.FTL.GCErases()+b.FTL.GCErases() == 0 || h.FTL.GCErases() == 0 {
		t.Fatalf("the run did not exercise lending and GC: lent %d, vacated %d ns, erases %d/%d/%d",
			lent, vacated, a.FTL.GCErases(), b.FTL.GCErases(), h.FTL.GCErases())
	}
}

// BenchmarkFTLWriteGC times one warm host write on a vSSD-sized FTL (the
// rack's default geometry, two channels): each op overwrites a uniformly
// drawn page of a keyspace of 55% of the logical space and, when the
// free ratio falls under the 25% GC threshold, runs a one-block burst,
// as the rack's regular GC does, relocating the victim's valid pages.
// The FTL, its OOB-area GC and its burst buffer allocate nothing once
// warm; the benchmark fails if an op does.
func BenchmarkFTLWriteGC(b *testing.B) {
	geo := flash.Geometry{Channels: 8, ChipsPerChannel: 4, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 4096}
	dev, err := ssd.NewDevice(sim.NewEngine(), geo, flash.ProfilePSSD())
	if err != nil {
		b.Fatal(err)
	}
	v, err := vssd.NewHardwareIsolated(dev, 1, []int{0, 1}, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	f := v.FTL
	keys := f.LogicalPages() * 55 / 100
	rng := sim.NewRNG(1)
	bursts := 0
	write := func() {
		if _, err := f.Write(rng.Intn(keys)); err != nil {
			b.Fatal(err)
		}
		if f.FreeRatio() < 0.25 && f.CollectBurst(0.29, 1).Blocks > 0 {
			bursts++
		}
	}
	for i := 0; i < 8*keys; i++ {
		write()
	}
	bursts = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(bursts)/float64(b.N), "bursts/op")
	b.ReportMetric(f.WriteAmplification(), "write-amp")
	if n := m1.Mallocs - m0.Mallocs; n > 0 {
		b.Fatalf("%d warm host writes with GC allocated %d objects, want 0", b.N, n)
	}
}
