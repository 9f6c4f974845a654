package sim

import "testing"

// flItem stands in for a recycled event: a pointer, a payload and a
// link-sized word, so zeroing has something to clear.
type flItem struct {
	owner *Engine
	seq   uint64
	vals  [4]int64
}

// TestFreeList covers the recycling contract: Get always returns a
// zeroed object, Put hands an object back for the next Get (LIFO), and
// an empty list costs exactly one malloc per slab of freeListSlab
// objects — never one per object — and nothing once warm.
func TestFreeList(t *testing.T) {
	t.Run("get zeroes", func(t *testing.T) {
		var l FreeList[flItem]
		e := NewEngine()
		var held []*flItem
		for i := 0; i < 3*freeListSlab; i++ {
			p := l.Get()
			if *p != (flItem{}) {
				t.Fatalf("fresh Get %d returned %+v, want zero", i, *p)
			}
			*p = flItem{owner: e, seq: uint64(i + 1), vals: [4]int64{1, 2, 3, 4}}
			held = append(held, p)
		}
		for _, p := range held {
			l.Put(p)
			if *p != (flItem{}) {
				t.Fatalf("Put left %+v, want zero", *p)
			}
		}
		for i := range held {
			if p := l.Get(); *p != (flItem{}) {
				t.Fatalf("recycled Get %d returned %+v, want zero", i, *p)
			}
		}
	})

	t.Run("put recycles", func(t *testing.T) {
		var l FreeList[flItem]
		a, b := l.Get(), l.Get()
		if a == b {
			t.Fatal("two Gets returned the same object")
		}
		l.Put(a)
		l.Put(b)
		if got := l.Get(); got != b {
			t.Fatal("Get after Put(a), Put(b) did not return b")
		}
		if got := l.Get(); got != a {
			t.Fatal("second Get did not return a")
		}
		seen := map[*flItem]bool{a: true, b: true}
		for i := 0; i < 2*freeListSlab; i++ {
			p := l.Get()
			if seen[p] {
				t.Fatalf("Get %d returned an object already in use", i)
			}
			seen[p] = true
		}
	})

	t.Run("one malloc per slab", func(t *testing.T) {
		var l FreeList[flItem]
		held := make([]*flItem, 3*freeListSlab) // keeps every object live
		for _, slabs := range []int{1, 3} {
			avg := testing.AllocsPerRun(20, func() {
				for i := 0; i < slabs*freeListSlab; i++ {
					held[i] = l.Get()
				}
			})
			if avg != float64(slabs) {
				t.Errorf("getting %d objects from a drained list allocates %.2f objects, want %d (one per slab)",
					slabs*freeListSlab, avg, slabs)
			}
		}
	})

	t.Run("warm cycle allocates nothing", func(t *testing.T) {
		var l FreeList[flItem]
		held := make([]*flItem, 5*freeListSlab)
		cycle := func() {
			for i := range held {
				held[i] = l.Get()
			}
			for _, p := range held {
				l.Put(p)
			}
		}
		cycle()
		if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
			t.Errorf("warm Get/Put cycle allocates %.2f objects, want 0", avg)
		}
	})
}

// BenchmarkFreeList measures the recycled path (a warm Get/Put pair, the
// datapath's steady state) and the growing path (Gets that never come
// back, which carve slabs).
func BenchmarkFreeList(b *testing.B) {
	b.Run("recycle", func(b *testing.B) {
		var l FreeList[flItem]
		l.Put(l.Get())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := l.Get()
			p.seq = uint64(i)
			l.Put(p)
		}
	})
	b.Run("grow", func(b *testing.B) {
		var l FreeList[flItem]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Get().seq = uint64(i)
		}
	})
}
