package sim

// freeListSlab is how many objects an empty FreeList allocates in one
// call.
const freeListSlab = 64

// FreeList recycles objects of one type. Get hands out a zeroed *T: the
// most recently recycled one, else the next unused element of the
// current slab; when both are exhausted it allocates a fresh slab of
// freeListSlab objects with one make. Put zeroes an object and keeps it
// for a later Get. A list that grows to n objects in flight therefore
// costs about n/freeListSlab slab mallocs plus the amortized growth of
// its free stack, and nothing once warm.
//
// The zero FreeList is ready to use. Like the engine it is for one
// goroutine: recycling is LIFO, so a single-threaded simulation reuses
// objects in a deterministic order. Nothing may use an object after
// Putting it.
type FreeList[T any] struct {
	free []*T // recycled objects, most recently freed last
	slab []T  // unissued tail of the newest slab
}

// Get returns a zeroed object.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	if len(l.slab) == 0 {
		l.slab = make([]T, freeListSlab)
	}
	p := &l.slab[0]
	l.slab = l.slab[1:]
	return p
}

// Put zeroes p and recycles it.
func (l *FreeList[T]) Put(p *T) {
	var zero T
	*p = zero
	l.free = append(l.free, p)
}
