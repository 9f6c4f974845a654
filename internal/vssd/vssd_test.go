package vssd

import (
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
)

func testDev(t *testing.T) *ssd.Device {
	t.Helper()
	geo := flash.Geometry{Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 4096}
	d, err := ssd.NewDevice(sim.NewEngine(), geo, flash.ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIsolationString(t *testing.T) {
	if Hardware.String() != "hardware" || Software.String() != "software" {
		t.Fatal("isolation strings")
	}
	if Isolation(7).String() == "" {
		t.Fatal("unknown isolation string")
	}
}

func TestHardwareIsolatedOwnsChannels(t *testing.T) {
	d := testDev(t)
	v, err := NewHardwareIsolated(d, 1, []int{0, 1}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if v.Iso != Hardware {
		t.Fatal("wrong isolation class")
	}
	chs := v.Channels()
	if len(chs) != 2 || chs[0] != 0 || chs[1] != 1 {
		t.Fatalf("channels = %v", chs)
	}
	// Hardware isolation admits immediately.
	if v.Admit(12345) != 12345 {
		t.Fatal("hardware vSSD throttled")
	}
}

func TestHardwareIsolatedValidation(t *testing.T) {
	d := testDev(t)
	if _, err := NewHardwareIsolated(d, 1, nil, 0.8); err == nil {
		t.Error("no channels accepted")
	}
	if _, err := NewHardwareIsolated(d, 1, []int{99}, 0.8); err == nil {
		t.Error("bad channel accepted")
	}
}

func TestSoftwareIsolatedThrottles(t *testing.T) {
	d := testDev(t)
	v, err := NewSoftwareIsolated(d, 2, d.ChannelChips(0)[:1], 0.8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v.Iso != Software {
		t.Fatal("wrong isolation class")
	}
	now := sim.Time(0)
	delayed := false
	for i := 0; i < 200; i++ {
		rel := v.Admit(now)
		if rel > now {
			delayed = true
			break
		}
	}
	if !delayed {
		t.Fatal("software vSSD never throttled at 1000 IOPS burst")
	}
}

func TestSoftwareIsolatedValidation(t *testing.T) {
	d := testDev(t)
	if _, err := NewSoftwareIsolated(d, 2, nil, 0.8, 100); err == nil {
		t.Error("no chips accepted")
	}
}

func TestGCStateTracking(t *testing.T) {
	d := testDev(t)
	v, _ := NewHardwareIsolated(d, 1, []int{0}, 0.8)
	if v.InGC(0) {
		t.Fatal("fresh vSSD in GC")
	}
	v.StartGC(1000)
	if !v.InGC(500) {
		t.Fatal("not in GC mid-burst")
	}
	if v.GCEndsAt() != 1000 {
		t.Fatalf("gc end = %d", v.GCEndsAt())
	}
	if v.InGC(1000) {
		t.Fatal("still in GC after burst end")
	}
	v.StartGC(2000)
	v.FinishGC()
	if v.InGC(1500) {
		t.Fatal("in GC after FinishGC")
	}
	if v.GCEndsAt() != 0 {
		t.Fatal("gc end not cleared")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	d := testDev(t)
	v, err := NewSoftwareIsolated(d, 2, d.ChannelChips(0)[:1], 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v.Admit(55) != 55 {
			t.Fatal("vSSD without an IOPS limit delayed")
		}
	}
}

func TestTokenBucketRate(t *testing.T) {
	d := testDev(t)
	v, err := NewSoftwareIsolated(d, 2, d.ChannelChips(0)[:1], 0.8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 IOPS bursts a tenth of a second's worth plus one: 101 requests.
	for i := 0; i < 101; i++ {
		if rel := v.Admit(0); rel != 0 {
			t.Fatalf("request %d of the burst delayed to %d", i, rel)
		}
	}
	if rel := v.Admit(0); rel != sim.Millisecond {
		t.Fatalf("first request past the burst released at %d, want 1ms", rel)
	}
}

func newGroup(t *testing.T, d *ssd.Device) (*ChannelGroup, *VSSD, *VSSD) {
	t.Helper()
	// Two SW-isolated vSSDs on channel 0, one chip each.
	chips := d.ChannelChips(0)
	a, err := NewSoftwareIsolated(d, 10, chips[:1], 0.85, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSoftwareIsolated(d, 11, chips[1:2], 0.85, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewChannelGroup(2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, b
}

func TestChannelGroupValidation(t *testing.T) {
	d := testDev(t)
	if _, err := NewChannelGroup(2); err == nil {
		t.Error("empty group accepted")
	}
	hw, _ := NewHardwareIsolated(d, 1, []int{1}, 0.8)
	sw, _ := NewSoftwareIsolated(d, 2, d.ChannelChips(0)[:1], 0.8, 0)
	if _, err := NewChannelGroup(2, sw, hw); err == nil {
		t.Error("hardware-isolated member accepted")
	}
	sw2, _ := NewSoftwareIsolated(d, 3, d.ChannelChips(2)[:1], 0.8, 0)
	if _, err := NewChannelGroup(2, sw, sw2); err == nil {
		t.Error("cross-channel group accepted")
	}
}

func TestGroupMembership(t *testing.T) {
	d := testDev(t)
	g, a, b := newGroup(t, d)
	if a.Group() != g || b.Group() != g {
		t.Fatal("members not linked to group")
	}
	if g.FreeRatio() != 1.0 {
		t.Fatalf("fresh group free ratio = %f", g.FreeRatio())
	}
}

func TestRebalanceLendsBlocks(t *testing.T) {
	d := testDev(t)
	g, a, _ := newGroup(t, d)
	// Exhaust member a's free blocks with writes.
	for i := 0; ; i++ {
		if _, err := a.FTL.Write(i % a.FTL.LogicalPages()); err != nil {
			break
		}
	}
	if a.FTL.FreeBlocks() > 2 {
		t.Fatalf("a still has %d free blocks", a.FTL.FreeBlocks())
	}
	moved := g.Rebalance()
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if g.OutstandingLoans() != moved {
		t.Fatalf("loans = %d, want %d", g.OutstandingLoans(), moved)
	}
	// Borrower can write again.
	if _, err := a.FTL.Write(0); err != nil {
		t.Fatalf("write after borrow: %v", err)
	}
}

func TestRebalanceNeedsHealthyLender(t *testing.T) {
	d := testDev(t)
	g, a, b := newGroup(t, d)
	// Exhaust both members: nobody can lend.
	for _, m := range []*VSSD{a, b} {
		for i := 0; ; i++ {
			if _, err := m.FTL.Write(i % m.FTL.LogicalPages()); err != nil {
				break
			}
		}
	}
	if moved := g.Rebalance(); moved != 0 {
		t.Fatalf("rebalance moved %d blocks with no healthy lender", moved)
	}
}

func TestGroupCollectReturnsLoans(t *testing.T) {
	d := testDev(t)
	g, a, b := newGroup(t, d)
	for i := 0; ; i++ {
		if _, err := a.FTL.Write(i % a.FTL.LogicalPages()); err != nil {
			break
		}
	}
	g.Rebalance()
	// Borrower consumes loaned blocks.
	for i := 0; ; i++ {
		if _, err := a.FTL.Write(i % a.FTL.LogicalPages()); err != nil {
			break
		}
	}
	lenderFreeBefore := b.FTL.FreeBlocks()
	res := g.GroupCollect(0.5, 0)
	if res.Blocks == 0 {
		t.Fatal("group collect reclaimed nothing")
	}
	if g.OutstandingLoans() != 0 {
		t.Fatalf("loans outstanding after group GC: %d", g.OutstandingLoans())
	}
	if b.FTL.FreeBlocks() <= lenderFreeBefore {
		t.Fatalf("lender free blocks %d did not recover from %d",
			b.FTL.FreeBlocks(), lenderFreeBefore)
	}
	charged := false
	for _, d := range res.PerChannel {
		charged = charged || d > 0
	}
	if !charged || res.Duration == 0 {
		t.Fatal("group collect did not account channel time")
	}
}

func TestGroupFreeRatioAggregates(t *testing.T) {
	d := testDev(t)
	g, a, _ := newGroup(t, d)
	before := g.FreeRatio()
	for i := 0; i < a.FTL.LogicalPages(); i++ {
		if _, err := a.FTL.Write(i); err != nil {
			break
		}
	}
	after := g.FreeRatio()
	if after >= before {
		t.Fatalf("group ratio did not fall: %f -> %f", before, after)
	}
	// One member exhausted but group ratio stays above the single-member
	// ratio because the other member is fresh.
	own := float64(a.FTL.FreeBlocks()) / float64(a.FTL.TotalBlocks())
	if after <= own {
		t.Fatalf("group ratio %f <= member ratio %f", after, own)
	}
}
