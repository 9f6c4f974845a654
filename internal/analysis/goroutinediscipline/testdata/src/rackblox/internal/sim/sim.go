// Package sim is a goroutinediscipline fixture: the engine package gets
// no exemption, in any of its files.
package sim

// Time is virtual simulation time in nanoseconds.
type Time int64

// RunUntil is a stand-in for the engine's run loop.
func RunUntil(end Time) {}

func sneaksConcurrencyIntoTheEnginePackage(done chan struct{}) {
	go func() { close(done) }() // want "goroutine spawned in internal/"
}
