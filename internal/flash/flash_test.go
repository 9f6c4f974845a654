package flash

import (
	"errors"
	"testing"
	"testing/quick"
)

func tinyGeo() Geometry {
	return Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 4, PagesPerBlock: 8, PageSize: 4096}
}

func TestGeometryCounts(t *testing.T) {
	g := tinyGeo()
	if g.TotalChips() != 4 {
		t.Fatalf("chips = %d, want 4", g.TotalChips())
	}
	if g.TotalBlocks() != 16 {
		t.Fatalf("blocks = %d, want 16", g.TotalBlocks())
	}
	if g.TotalPages() != 128 {
		t.Fatalf("pages = %d, want 128", g.TotalPages())
	}
	if g.Capacity() != 128*4096 {
		t.Fatalf("capacity = %d", g.Capacity())
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := tinyGeo()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(ch, chip, blk, pg uint8) bool {
		a := Addr{
			Channel: int(ch) % g.Channels,
			Chip:    int(chip) % g.ChipsPerChannel,
			Block:   int(blk) % g.BlocksPerChip,
			Page:    int(pg) % g.PagesPerBlock,
		}
		return g.AddrOf(g.PPN(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPNDense(t *testing.T) {
	g := tinyGeo()
	seen := make([]bool, g.TotalPages())
	for ch := 0; ch < g.Channels; ch++ {
		for c := 0; c < g.ChipsPerChannel; c++ {
			for b := 0; b < g.BlocksPerChip; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					n := g.PPN(Addr{ch, c, b, p})
					if n < 0 || n >= len(seen) || seen[n] {
						t.Fatalf("PPN not a bijection at %v -> %d", Addr{ch, c, b, p}, n)
					}
					seen[n] = true
				}
			}
		}
	}
}

func TestProfiles(t *testing.T) {
	o, i, p := ProfileOptane(), ProfileIntelDC(), ProfilePSSD()
	if !(o.ReadPage < i.ReadPage && i.ReadPage < p.ReadPage) {
		t.Fatal("profile read latency ordering broken (Optane < IntelDC < P-SSD)")
	}
	if !(o.ProgramPage < i.ProgramPage && i.ProgramPage < p.ProgramPage) {
		t.Fatal("profile program latency ordering broken")
	}
	for _, name := range []string{"Optane", "IntelDC", "P-SSD"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("floppy"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func newTestArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(tinyGeo(), ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Every block's State and Owner are its own page-sized windows into the
// chip's slabs: an append or a write through one block never reaches
// its neighbour.
func TestBlockPageWindows(t *testing.T) {
	a := newTestArray(t)
	ppb := a.Geo.PagesPerBlock
	for c := range a.Chips {
		for b := range a.Chips[c].Blocks {
			blk := &a.Chips[c].Blocks[b]
			if len(blk.State) != ppb || cap(blk.State) != ppb || len(blk.Owner) != ppb || cap(blk.Owner) != ppb {
				t.Fatalf("chip %d block %d: State %d/%d, Owner %d/%d, want %d pages each",
					c, b, len(blk.State), cap(blk.State), len(blk.Owner), cap(blk.Owner), ppb)
			}
		}
	}
	first, second := a.BlockAt(Addr{Block: 0}), a.BlockAt(Addr{Block: 1})
	first.Owner[ppb-1] = 7
	if second.Owner[0] != 0 {
		t.Fatal("a block's last owner entry aliases the next block's first")
	}
	if p, _ := a.Program(Addr{Block: 0}); p != 0 || second.State[0] != PageFree {
		t.Fatal("programming block 0 touched block 1")
	}
}

func TestProgramSequential(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Channel: 0, Chip: 0, Block: 0}
	for want := 0; want < a.Geo.PagesPerBlock; want++ {
		p, err := a.Program(addr)
		if err != nil {
			t.Fatalf("program %d: %v", want, err)
		}
		if p != want {
			t.Fatalf("program returned page %d, want %d", p, want)
		}
	}
	if _, err := a.Program(addr); !errors.Is(err, ErrBlockFull) {
		t.Fatalf("overfull program err = %v, want ErrBlockFull", err)
	}
	if b := a.BlockAt(addr); b.Valid != a.Geo.PagesPerBlock {
		t.Fatalf("valid = %d, want %d", b.Valid, a.Geo.PagesPerBlock)
	}
}

func TestInvalidate(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Block: 1}
	p, _ := a.Program(addr)
	addr.Page = p
	if err := a.Invalidate(addr); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	if a.BlockAt(addr).Valid != 0 {
		t.Fatal("valid count not decremented")
	}
	if err := a.Invalidate(addr); err == nil {
		t.Fatal("double invalidate accepted")
	}
	if err := a.Invalidate(Addr{Block: 1, Page: 999}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Block: 2}
	for i := 0; i < 4; i++ {
		a.Program(addr)
	}
	if err := a.Erase(addr); err != nil {
		t.Fatalf("erase: %v", err)
	}
	b := a.BlockAt(addr)
	if b.WritePtr != 0 || b.Valid != 0 || b.EraseCount != 1 {
		t.Fatalf("block after erase = %+v", b)
	}
	for _, s := range b.State {
		if s != PageFree {
			t.Fatal("page not freed by erase")
		}
	}
	if a.Erases() != 1 {
		t.Fatalf("array erases = %d, want 1", a.Erases())
	}
}

func TestEnduranceRetiresBlock(t *testing.T) {
	geo := tinyGeo()
	prof := ProfilePSSD()
	prof.Endurance = 3
	a, err := NewArray(geo, prof)
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr{}
	for i := 0; i < 2; i++ {
		if err := a.Erase(addr); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := a.Erase(addr); !errors.Is(err, ErrWornOut) {
		t.Fatalf("third erase err = %v, want ErrWornOut", err)
	}
	if !a.BlockAt(addr).Bad {
		t.Fatal("block not marked bad at endurance")
	}
	if _, err := a.Program(addr); !errors.Is(err, ErrWornOut) {
		t.Fatal("program on bad block accepted")
	}
	if err := a.Erase(addr); !errors.Is(err, ErrWornOut) {
		t.Fatal("erase on bad block accepted")
	}
}

func TestWearAccounting(t *testing.T) {
	a := newTestArray(t)
	if a.AvgEraseCount() != 0 || a.MaxEraseCount() != 0 {
		t.Fatal("fresh array has wear")
	}
	a.Erase(Addr{Block: 0})
	a.Erase(Addr{Block: 0})
	a.Erase(Addr{Block: 1})
	if a.MaxEraseCount() != 2 {
		t.Fatalf("max erase = %d, want 2", a.MaxEraseCount())
	}
	want := 3.0 / float64(a.Geo.TotalBlocks())
	if got := a.AvgEraseCount(); got != want {
		t.Fatalf("avg erase = %f, want %f", got, want)
	}
}

func TestProgramsCounter(t *testing.T) {
	a := newTestArray(t)
	a.Program(Addr{})
	a.Program(Addr{})
	a.Program(Addr{Block: 1})
	if a.Programs() != 3 {
		t.Fatalf("programs = %d, want 3", a.Programs())
	}
}

// Property: valid-page count per block always equals programs minus
// invalidations and is bounded by pages-per-block.
func TestValidCountInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, err := NewArray(tinyGeo(), ProfilePSSD())
		if err != nil {
			return false
		}
		addr := Addr{}
		var valids []int // pages currently valid
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // program
				if p, err := a.Program(addr); err == nil {
					valids = append(valids, p)
				}
			case 2: // invalidate one valid page
				if len(valids) > 0 {
					pg := valids[len(valids)-1]
					valids = valids[:len(valids)-1]
					if a.Invalidate(Addr{Page: pg}) != nil {
						return false
					}
				}
			}
			b := a.BlockAt(addr)
			if b.Valid != len(valids) || b.Valid > a.Geo.PagesPerBlock {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageStateString(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Fatal("state strings wrong")
	}
	if PageState(9).String() == "" {
		t.Fatal("unknown state has empty string")
	}
}
