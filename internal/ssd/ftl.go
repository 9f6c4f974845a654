package ssd

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// BlockRef names one erase block inside a device.
type BlockRef struct {
	Chip  ChipRef
	Block int
}

// ErrNoSpace is returned when no free page can be allocated.
var ErrNoSpace = errors.New("ssd: no free pages available")

// gcReserveBlocks is the number of free blocks host writes may never
// consume, so garbage collection always has relocation space. One block is
// enough: a victim holds at most PagesPerBlock-1 valid pages and erasing it
// restores the reserve before the next reclaim.
const gcReserveBlocks = 1

// ErrUnmapped is returned when reading a never-written logical page.
var ErrUnmapped = errors.New("ssd: logical page not mapped")

// chipAlloc is the per-chip allocation state of an FTL.
type chipAlloc struct {
	ref    ChipRef
	free   []int  // free block indices, allocation pulls min-wear
	isFree []bool // parallel "is block free" flags
	active int    // block currently being programmed, -1 if none
}

// FTL is a page-mapped flash translation layer over a set of chips.
// Each vSSD owns one FTL ("each vSSD has its own address mapping table",
// §3.3). Chips are never shared between FTLs; software-isolated vSSDs
// share channels, not chips.
//
// The reverse direction, physical page to logical page, lives where a
// real SSD keeps it: in each programmed page's OOB area (flash.Block's
// Owner). A page belongs to this FTL exactly when it is valid and
// mapping[Owner] names it, so garbage collection needs no reverse table.
type FTL struct {
	dev          *Device
	chips        []*chipAlloc
	channels     []int   // distinct channels of chips, first-seen order
	mapping      []int32 // LPN -> global PPN, -1 when unmapped
	nextChip     int     // round-robin allocation cursor
	logicalPages int

	// Borrowed free blocks from collocated vSSDs in the same channel
	// group (§3.5.2): usable for allocation, returned after group GC.
	borrowed      []BlockRef // still-free borrowed blocks
	borrowedInUse []BlockRef // borrowed blocks holding data, first-use order

	// burst backs CollectBurst's BurstResult.PerChannel, indexed by
	// channel up to the highest one in channels.
	burst []sim.Time

	hostWrites int64 // pages written by the host
	gcMoves    int64 // pages moved by garbage collection
	gcErases   int64 // blocks erased by garbage collection
}

// NewFTL builds an FTL over the given chips. utilization in (0,1) sets the
// exported logical space as a fraction of raw pages; the rest is
// over-provisioning that garbage collection feeds on.
func NewFTL(dev *Device, chips []ChipRef, utilization float64) (*FTL, error) {
	if len(chips) == 0 {
		return nil, errors.New("ssd: FTL needs at least one chip")
	}
	if utilization <= 0 || utilization >= 1 {
		return nil, fmt.Errorf("ssd: utilization %f outside (0,1)", utilization)
	}
	geo := dev.Geometry()
	if geo.TotalPages() > math.MaxInt32 {
		return nil, fmt.Errorf("ssd: %d pages overflow the int32 mapping", geo.TotalPages())
	}
	f := &FTL{dev: dev}
	for _, c := range chips {
		if c.Channel < 0 || c.Channel >= geo.Channels || c.Chip < 0 || c.Chip >= geo.ChipsPerChannel {
			return nil, fmt.Errorf("ssd: chip %+v out of range", c)
		}
		ca := &chipAlloc{ref: c, active: -1, isFree: make([]bool, geo.BlocksPerChip)}
		for b := 0; b < geo.BlocksPerChip; b++ {
			ca.free = append(ca.free, b)
			ca.isFree[b] = true
		}
		f.chips = append(f.chips, ca)
		if !slices.Contains(f.channels, c.Channel) {
			f.channels = append(f.channels, c.Channel)
		}
	}
	f.burst = make([]sim.Time, slices.Max(f.channels)+1)
	raw := len(chips) * geo.BlocksPerChip * geo.PagesPerBlock
	f.logicalPages = int(float64(raw) * utilization)
	if f.logicalPages < 1 {
		return nil, errors.New("ssd: logical space rounds to zero pages")
	}
	f.mapping = make([]int32, f.logicalPages)
	for i := range f.mapping {
		f.mapping[i] = -1
	}
	return f, nil
}

// Channels returns the distinct channels the FTL's chips live on, in
// first-seen chip order. The chip set is fixed at NewFTL, so this is
// computed once there; the slice is shared and callers must not modify
// it.
func (f *FTL) Channels() []int { return f.channels }

// LogicalPages returns the exported logical page count.
func (f *FTL) LogicalPages() int { return f.logicalPages }

// TotalBlocks returns raw blocks owned (excluding borrowed).
func (f *FTL) TotalBlocks() int {
	return len(f.chips) * f.dev.Geometry().BlocksPerChip
}

// FreeBlocks returns the number of fully erased blocks available for
// allocation, including borrowed ones.
func (f *FTL) FreeBlocks() int {
	n := len(f.borrowed)
	for _, c := range f.chips {
		n += len(c.free)
	}
	return n
}

// FreeRatio returns FreeBlocks / TotalBlocks, the quantity compared against
// the paper's soft (35%) and regular (25%) GC thresholds.
func (f *FTL) FreeRatio() float64 {
	return float64(f.FreeBlocks()) / float64(f.TotalBlocks())
}

// HostWrites returns pages written by the host.
func (f *FTL) HostWrites() int64 { return f.hostWrites }

// GCErases returns blocks erased by GC.
func (f *FTL) GCErases() int64 { return f.gcErases }

// WriteAmplification returns (host + GC writes) / host writes.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcMoves) / float64(f.hostWrites)
}

// Read resolves a logical page to its physical address.
func (f *FTL) Read(lpn int) (flash.Addr, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return flash.Addr{}, fmt.Errorf("ssd: lpn %d out of range [0,%d)", lpn, f.logicalPages)
	}
	ppn := f.mapping[lpn]
	if ppn < 0 {
		return flash.Addr{}, ErrUnmapped
	}
	return f.dev.Geometry().AddrOf(int(ppn)), nil
}

// Write allocates a fresh physical page for the logical page, updating the
// mapping and invalidating any previous copy. Only state changes; timing
// is charged by the caller via Device.TimeProgram.
func (f *FTL) Write(lpn int) (flash.Addr, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return flash.Addr{}, fmt.Errorf("ssd: lpn %d out of range [0,%d)", lpn, f.logicalPages)
	}
	addr, err := f.allocPage(BlockRef{Block: -1}, false)
	if err != nil {
		return flash.Addr{}, err
	}
	f.commitMapping(lpn, addr)
	f.hostWrites++
	return addr, nil
}

// commitMapping points lpn at addr, invalidating the previous location,
// and records lpn in the new page's OOB area.
func (f *FTL) commitMapping(lpn int, addr flash.Addr) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	if old := f.mapping[lpn]; old >= 0 {
		if err := arr.Invalidate(geo.AddrOf(int(old))); err != nil {
			panic(fmt.Sprintf("ssd: corrupt mapping for lpn %d: %v", lpn, err))
		}
	}
	f.mapping[lpn] = int32(geo.PPN(addr))
	arr.BlockAt(addr).Owner[addr.Page] = int32(lpn)
}

// owner returns the logical page stored in the valid page at addr, read
// from its OOB area; ok is false when this FTL's mapping does not point
// back at addr (the page is stale or belongs to another FTL).
func (f *FTL) owner(blk *flash.Block, addr flash.Addr) (lpn int, ok bool) {
	o := int(blk.Owner[addr.Page])
	if o < 0 || o >= f.logicalPages || int(f.mapping[o]) != f.dev.Geometry().PPN(addr) {
		return 0, false
	}
	return o, true
}

// allocPage returns the next free physical page, rotating across chips for
// parallelism and skipping the excluded block (the GC victim). forGC marks
// relocation writes, which may dip into the GC reserve.
func (f *FTL) allocPage(exclude BlockRef, forGC bool) (flash.Addr, error) {
	geo := f.dev.Geometry()
	for try := 0; try < len(f.chips); try++ {
		ca := f.chips[f.nextChip]
		f.nextChip = (f.nextChip + 1) % len(f.chips)
		addr, err := f.allocOnChip(ca, exclude, forGC)
		if err == nil {
			return addr, nil
		}
	}
	// Own chips exhausted: fall back to borrowed blocks.
	for len(f.borrowed) > 0 {
		if !forGC && f.FreeBlocks() <= gcReserveBlocks {
			break
		}
		br := f.borrowed[len(f.borrowed)-1]
		addr := flash.Addr{Channel: br.Chip.Channel, Chip: br.Chip.Chip, Block: br.Block}
		page, err := f.dev.Array().Program(addr)
		if err != nil {
			// Borrowed block unusable (worn out); drop it.
			f.borrowed = f.borrowed[:len(f.borrowed)-1]
			continue
		}
		addr.Page = page
		if page == 0 {
			// Borrowed blocks arrive erased: the first program puts
			// the block in use.
			f.borrowedInUse = append(f.borrowedInUse, br)
		}
		if page == geo.PagesPerBlock-1 {
			f.borrowed = f.borrowed[:len(f.borrowed)-1]
		}
		return addr, nil
	}
	return flash.Addr{}, ErrNoSpace
}

// allocOnChip programs the next page of the chip's active block, opening a
// new block (minimum wear first, the device-level wear leveling of §3.3)
// when the active block is full or missing.
func (f *FTL) allocOnChip(ca *chipAlloc, exclude BlockRef, forGC bool) (flash.Addr, error) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	for {
		if ca.active < 0 {
			if !f.openBlock(ca, exclude, forGC) {
				return flash.Addr{}, ErrNoSpace
			}
		}
		addr := flash.Addr{Channel: ca.ref.Channel, Chip: ca.ref.Chip, Block: ca.active}
		page, err := arr.Program(addr)
		if err == nil {
			addr.Page = page
			if arr.BlockAt(addr).WritePtr >= geo.PagesPerBlock {
				ca.active = -1 // block now full; graduate it
			}
			return addr, nil
		}
		// Active block full or bad: retire it and retry with a new one.
		ca.active = -1
	}
}

// openBlock pops the least-worn free block of the chip into active.
// Host writes (forGC false) must leave the GC reserve untouched.
func (f *FTL) openBlock(ca *chipAlloc, exclude BlockRef, forGC bool) bool {
	if !forGC && f.FreeBlocks() <= gcReserveBlocks {
		return false
	}
	arr := f.dev.Array()
	best, bestWear := -1, int(^uint(0)>>1)
	for i, b := range ca.free {
		if exclude.Block == b && exclude.Chip == ca.ref {
			continue
		}
		blk := &arr.Chips[chipFlat(f.dev, ca.ref)].Blocks[b]
		if blk.Bad {
			continue
		}
		if blk.EraseCount < bestWear {
			bestWear = blk.EraseCount
			best = i
		}
	}
	if best < 0 {
		return false
	}
	b := ca.free[best]
	ca.free = append(ca.free[:best], ca.free[best+1:]...)
	ca.isFree[b] = false
	ca.active = b
	return true
}

func chipFlat(d *Device, c ChipRef) int {
	return c.Channel*d.Geometry().ChipsPerChannel + c.Chip
}

// Borrow removes up to n free blocks from this FTL's free lists and hands
// them to a collocated vSSD (§3.5.2 block borrowing). Fewer than n may be
// returned when free space is short.
func (f *FTL) Borrow(n int) []BlockRef {
	var out []BlockRef
	for _, ca := range f.chips {
		for n > 0 && len(ca.free) > 0 {
			b := ca.free[len(ca.free)-1]
			ca.free = ca.free[:len(ca.free)-1]
			ca.isFree[b] = false
			out = append(out, BlockRef{Chip: ca.ref, Block: b})
			n--
		}
		if n == 0 {
			break
		}
	}
	return out
}

// AcceptBorrowed adds foreign free blocks to the allocation pool.
func (f *FTL) AcceptBorrowed(blocks []BlockRef) {
	f.borrowed = append(f.borrowed, blocks...)
}

// GiveBack restores previously lent blocks to this FTL's free lists. The
// blocks must already be erased.
func (f *FTL) GiveBack(blocks []BlockRef) {
	for _, br := range blocks {
		for _, ca := range f.chips {
			if ca.ref == br.Chip {
				ca.free = append(ca.free, br.Block)
				ca.isFree[br.Block] = true
				break
			}
		}
	}
}

// BorrowedInUse returns how many borrowed blocks currently hold data.
func (f *FTL) BorrowedInUse() int { return len(f.borrowedInUse) }
