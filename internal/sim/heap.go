package sim

// heapQueue is the original binary-heap event queue, reimplemented over
// pooled node indices. It is no longer the production scheduler (the
// wheelQueue is) but stays as the reference implementation: the
// differential tests execute random schedules on both and require
// identical traces. Ordering is (time, insertion-seq), identical to the
// wheel's.
//
// Unlike the old container/heap version it neither boxes events into
// interfaces (two allocations per event) nor strands popped callbacks in
// the truncated slice's backing array — the slice holds indices, and the
// node pool zeroes a drained node's handler.
type heapQueue struct {
	pool *nodePool
	h    []int32
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) peekTime() Time { return q.pool.nodes[q.h[0]].at }

func (q *heapQueue) less(a, b int32) bool {
	na, nb := &q.pool.nodes[a], &q.pool.nodes[b]
	if na.at != nb.at {
		return na.at < nb.at
	}
	return na.seq < nb.seq
}

func (q *heapQueue) push(i int32) {
	q.h = append(q.h, i)
	c := len(q.h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !q.less(q.h[c], q.h[p]) {
			break
		}
		q.h[c], q.h[p] = q.h[p], q.h[c]
		c = p
	}
}

func (q *heapQueue) pop() int32 {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	n := last
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(q.h[r], q.h[c]) {
			c = r
		}
		if !q.less(q.h[c], q.h[p]) {
			break
		}
		q.h[p], q.h[c] = q.h[c], q.h[p]
		p = c
	}
	return top
}
