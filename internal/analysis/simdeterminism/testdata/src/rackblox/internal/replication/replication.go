// Package replication is a simdeterminism fixture for a package inside
// the extended perimeter: settling pending writes in map order through
// a local helper that schedules is a finding; settling them in sorted
// key order is not.
package replication

import (
	"sort"

	"rackblox/internal/sim"
)

// Node mimics a replication node holding writes pending per key.
type Node struct {
	eng     *sim.Engine
	pending map[uint32]sim.Time
}

func (n *Node) settle(lpn uint32, d sim.Time) {
	n.eng.AfterNamed(d, "hermes.commit", func(sim.Time) {})
	delete(n.pending, lpn)
}

func (n *Node) removePeerInMapOrder() {
	for lpn, d := range n.pending { // want "map iteration order .* schedules engine events"
		n.settle(lpn, d)
	}
}

func (n *Node) removePeerInKeyOrder() {
	keys := make([]uint32, 0, len(n.pending))
	for lpn := range n.pending {
		keys = append(keys, lpn)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, lpn := range keys {
		n.settle(lpn, n.pending[lpn])
	}
}
