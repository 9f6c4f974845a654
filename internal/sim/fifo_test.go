package sim

import "testing"

// TestFIFOOrderAcrossCompaction interleaves pushes and pops so the queue
// both empties (resetting in place) and compacts a long consumed prefix,
// and checks strict FIFO order and bounded backing storage throughout.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 97; i++ { // leave a few behind so the head advances
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
		if cap(q.items) > 1024 {
			t.Fatalf("backing array grew to %d for <= 250 live items", cap(q.items))
		}
	}
	for want < next {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	q.Push(next)
	if q.head != 0 || len(q.items) != 1 {
		t.Fatalf("push into a drained queue kept head %d, len %d; want reuse from 0", q.head, len(q.items))
	}
}

// TestFIFOLenPeekAcrossWrap checks Len and Peek as the queue drains to
// empty and is reused from the front of its backing array, and that a
// popped slot drops its reference.
func TestFIFOLenPeekAcrossWrap(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 8)
	for round := 0; round < 3; round++ {
		for i := range vals {
			q.Push(&vals[i])
			if q.Len() != i+1 {
				t.Fatalf("round %d: Len %d after %d pushes", round, q.Len(), i+1)
			}
		}
		for i := range vals {
			if q.Peek() != &vals[i] {
				t.Fatalf("round %d: Peek is not item %d", round, i)
			}
			if q.Pop() != &vals[i] {
				t.Fatalf("round %d: Pop is not item %d", round, i)
			}
			if q.items[q.head-1] != nil {
				t.Fatalf("round %d: popped slot %d still holds its item", round, i)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: Len %d after draining", round, q.Len())
		}
	}
	if cap(q.items) > 16 {
		t.Fatalf("backing array grew to %d for 8 live items", cap(q.items))
	}
}
