package ssd

import (
	"cmp"
	"fmt"
	"slices"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// GCResult describes the work of one garbage-collection step.
type GCResult struct {
	// Victim is the reclaimed block.
	Victim BlockRef
	// Moved counts valid pages relocated out of the victim.
	Moved int
	// Duration is the flash time consumed: Moved*(read+program) + erase.
	Duration sim.Time
	// Channel is the flash channel blocked for Duration.
	Channel int
}

// BurstResult aggregates a GC burst (§3.5: one gc_op covers freeing enough
// blocks to climb back above the threshold).
type BurstResult struct {
	Blocks   int
	Moved    int
	Duration sim.Time
	// PerChannel is the blocked time per channel index, up to the
	// highest channel the producer spans; 0 leaves a channel alone. It
	// aliases a buffer its producer reuses, so it is valid until the
	// producer's next burst.
	PerChannel []sim.Time
}

// stepDuration prices one GC step from the device profile.
func (f *FTL) stepDuration(moved int) sim.Time {
	p := f.dev.Profile()
	return sim.Time(moved)*(p.ReadPage+p.ProgramPage) + p.EraseBlock
}

// victim selects the candidate block with the fewest valid pages (greedy
// policy, the paper's default). Free, active, and borrowed-in-use blocks
// are excluded. Returns false when no block can be reclaimed at a profit.
func (f *FTL) victim() (BlockRef, bool) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	best := BlockRef{Block: -1}
	bestValid := geo.PagesPerBlock + 1
	for _, ca := range f.chips {
		for b := 0; b < geo.BlocksPerChip; b++ {
			if ca.isFree[b] || ca.active == b {
				continue
			}
			blk := &arr.Chips[chipFlat(f.dev, ca.ref)].Blocks[b]
			if blk.Bad || blk.WritePtr == 0 {
				continue
			}
			if blk.Valid < bestValid {
				bestValid = blk.Valid
				best = BlockRef{Chip: ca.ref, Block: b}
			}
		}
	}
	if best.Block < 0 || bestValid >= geo.PagesPerBlock {
		// Reclaiming a fully valid block frees no net space.
		return BlockRef{}, false
	}
	return best, true
}

// CollectOnce reclaims a single victim block: relocates its valid pages,
// erases it, and returns the work done. ok is false when nothing can be
// collected.
func (f *FTL) CollectOnce() (GCResult, bool) {
	v, ok := f.victim()
	if !ok {
		return GCResult{}, false
	}
	res, err := f.reclaim(v)
	if err != nil {
		return GCResult{}, false
	}
	return res, true
}

// reclaim relocates and erases one specific block.
func (f *FTL) reclaim(v BlockRef) (GCResult, error) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	vaddr := flash.Addr{Channel: v.Chip.Channel, Chip: v.Chip.Chip, Block: v.Block}
	blk := arr.BlockAt(vaddr)
	moved := 0
	for p := 0; p < geo.PagesPerBlock; p++ {
		if blk.State[p] != flash.PageValid {
			continue
		}
		src := vaddr
		src.Page = p
		lpn, ok := f.owner(blk, src)
		if !ok {
			return GCResult{}, fmt.Errorf("ssd: valid page %v is not mapped by its owner", src)
		}
		dst, err := f.allocPage(v, true)
		if err != nil {
			return GCResult{}, err
		}
		f.commitMapping(lpn, dst)
		f.gcMoves++
		moved++
	}
	if err := arr.Erase(vaddr); err != nil {
		// The block wore out on this erase; it is retired, not freed.
		f.gcErases++
		return GCResult{Victim: v, Moved: moved, Duration: f.stepDuration(moved), Channel: v.Chip.Channel}, nil
	}
	f.gcErases++
	for _, ca := range f.chips {
		if ca.ref == v.Chip {
			ca.free = append(ca.free, v.Block)
			ca.isFree[v.Block] = true
			break
		}
	}
	return GCResult{Victim: v, Moved: moved, Duration: f.stepDuration(moved), Channel: v.Chip.Channel}, nil
}

// CollectBurst reclaims blocks until FreeRatio reaches target, no victim
// remains, or maxBlocks are reclaimed (0 = unlimited). The cap keeps one
// GC event at "a few milliseconds" of channel time — the granularity the
// paper's tail-latency numbers reflect — with further events following in
// later monitoring rounds. It aggregates per-channel blocked time so the
// caller can occupy the channel resources for the right spans; the
// result's PerChannel is the FTL's own buffer, overwritten by the next
// CollectBurst.
func (f *FTL) CollectBurst(target float64, maxBlocks int) BurstResult {
	clear(f.burst)
	out := BurstResult{PerChannel: f.burst}
	for f.FreeRatio() < target {
		if maxBlocks > 0 && out.Blocks >= maxBlocks {
			break
		}
		res, ok := f.CollectOnce()
		if !ok {
			break
		}
		out.Blocks++
		out.Moved += res.Moved
		out.Duration += res.Duration
		out.PerChannel[res.Channel] += res.Duration
	}
	return out
}

// VacateBorrowed relocates any data left in borrowed blocks back onto the
// FTL's own chips, erases the borrowed blocks ("for security", §3.5.2),
// and returns them so the lender can reclaim them via GiveBack. A block
// that wears out on that erase is retired, as reclaim retires its
// victims, and is not returned. The second return value is the flash
// time consumed.
func (f *FTL) VacateBorrowed() ([]BlockRef, sim.Time) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	var returned []BlockRef
	var dur sim.Time
	// Vacate in physical order, so relocation (and thus FTL state) does
	// not depend on the order the blocks came into use.
	slices.SortFunc(f.borrowedInUse, func(a, b BlockRef) int {
		return cmp.Or(cmp.Compare(a.Chip.Channel, b.Chip.Channel),
			cmp.Compare(a.Chip.Chip, b.Chip.Chip), cmp.Compare(a.Block, b.Block))
	})
	kept := f.borrowedInUse[:0]
	for _, br := range f.borrowedInUse {
		vaddr := flash.Addr{Channel: br.Chip.Channel, Chip: br.Chip.Chip, Block: br.Block}
		blk := arr.BlockAt(vaddr)
		moved := 0
		for p := 0; p < geo.PagesPerBlock; p++ {
			if blk.State[p] != flash.PageValid {
				continue
			}
			src := vaddr
			src.Page = p
			lpn, ok := f.owner(blk, src)
			if !ok {
				continue
			}
			// Relocation target must be an owned chip, not another
			// borrowed block, so exclusion alone is not enough; drain
			// borrowed list temporarily.
			saved := f.borrowed
			f.borrowed = nil
			dst, err := f.allocPage(br, true)
			f.borrowed = saved
			if err != nil {
				// No owned space: leave the page, the lender's erase
				// would lose data; abort this block's return.
				moved = -1
				break
			}
			f.commitMapping(lpn, dst)
			f.gcMoves++
			moved++
		}
		if moved < 0 {
			kept = append(kept, br)
			continue
		}
		f.gcErases++
		dur += f.stepDuration(moved)
		if err := arr.Erase(vaddr); err != nil {
			continue // worn out: retired here, never back on a free list
		}
		returned = append(returned, br)
	}
	f.borrowedInUse = kept
	// Unused borrowed blocks go back as-is (they are still erased).
	returned = append(returned, f.borrowed...)
	f.borrowed = f.borrowed[:0]
	return returned, dur
}
