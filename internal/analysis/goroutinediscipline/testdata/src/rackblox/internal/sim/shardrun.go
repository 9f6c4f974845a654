package sim

// A worker pool in the engine package is a finding like any other
// spawn: no file in internal/ is sanctioned to start goroutines.
func startWorkers(windows []chan Time) {
	for range windows {
		ch := make(chan Time)
		go func() { // want "goroutine spawned in internal/"
			for end := range ch {
				RunUntil(end)
			}
		}()
	}
}
