package sim

// FIFO is a queue that reuses its backing array: pops advance a head
// index and the array compacts once the consumed prefix dominates, so a
// queue whose length stays bounded stops allocating once warm. Serial
// links use one to match completions to transfers: their completion
// times never decrease, so the oldest entry is always the one finishing.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head >= 64 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Peek returns the oldest item without removing it; the queue must be
// non-empty.
func (q *FIFO[T]) Peek() T { return q.items[q.head] }

// Pop removes and returns the oldest item; the queue must be non-empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // drop references held by the consumed slot
	q.head++
	return v
}
