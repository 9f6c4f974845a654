// Package netsim is outside the simdeterminism perimeter (the analyzer
// scopes to sim/core/ec/switchsim/experiments and the packages that run
// inside event handlers: replication/ssd/vssd/sched): identical code
// here is not a finding. No want comments.
package netsim

import "rackblox/internal/sim"

func schedulesInMapOrder(eng *sim.Engine, m map[int]sim.Time) {
	for _, d := range m {
		eng.AfterNamed(d, "netsim.work", func(sim.Time) {})
	}
}
