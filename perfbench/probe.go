package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and how fast those cores run drifts by half over minutes with no
// change to the program: a neighbour's load slows every instruction
// without taking the core away (it does not show as steal time). A
// closed-loop window therefore pauses every segLen, and while nothing
// else runs, times a fixed probe computation on every core. The probe
// is the benchmark's own code, not the program's, so a faster program
// still reads faster; the probe only says how fast the host was.
//
// Each set-up is bracketed by probes the same way (timedSetup).
//
// Timed figures are reported on a reference host: a second of window or
// set-up whose neighbouring probes ran at speed s (probe sweeps per
// second per core) counts as s/probeRef reference seconds, and each
// latency is scaled the same way. The raw figures stay in the full
// record.
const (
	// segLen is how long the load runs between two probes.
	segLen = 1500 * time.Millisecond
	// probeSweeps is the probe's work per core: about 0.1 s here.
	probeSweeps = 100
	// probeSteps is the probe lattice's depth, the program's own.
	probeSteps = steps
	// probeRef is the reference host's probe speed (sweeps per second
	// per core), about the median of a shared 2-vCPU Xeon.
	probeRef = 1000.0
)

// probeSink keeps the compiler from dropping the probe's work.
var probeSink float64

// probeSpeed runs probeSweeps backward inductions over a
// probeSteps-deep American-put lattice on every core at once and
// returns sweeps per second per core.
func probeSpeed() float64 {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := make([]float64, probeSteps+1)
			ex := make([]float64, probeSteps+1)
			for i := range ex {
				ex[i] = 100 - 60*float64(i)/probeSteps
			}
			var sum float64
			for s := 0; s < probeSweeps; s++ {
				copy(v, ex)
				for n := probeSteps; n > 0; n-- {
					for i := 0; i < n; i++ {
						c := 0.4995*v[i] + 0.5003*v[i+1]
						if e := ex[i] + float64(probeSteps-n); c < e {
							c = e
						}
						v[i] = c
					}
				}
				sum += v[0]
			}
			mu.Lock()
			probeSink += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	return probeSweeps / time.Since(t0).Seconds()
}
