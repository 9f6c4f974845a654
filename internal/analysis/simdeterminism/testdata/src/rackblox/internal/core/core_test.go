// Test files may iterate maps and use the global stream freely. No want
// comments.
package core

import (
	"math/rand"

	"rackblox/internal/sim"
)

func helperForTests(eng *sim.Engine, m map[int]sim.Time) {
	for _, d := range m {
		eng.AfterNamed(d, "test.helper", func(sim.Time) {})
	}
	_ = rand.Intn(2)
}
