// Package demo is a goroutinediscipline fixture: an internal package
// outside internal/sim, where every `go` statement is a finding.
package demo

func fansOut(work []func()) {
	for _, w := range work {
		go w() // want "goroutine spawned in internal/"
	}
}

func nestedSpawn(done chan struct{}) {
	helper := func() {
		go func() { close(done) }() // want "goroutine spawned in internal/"
	}
	helper()
}
