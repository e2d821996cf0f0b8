package main

import (
	"sync"
	"syscall"
	"time"
)

// Host-speed reference. Besides stealing CPU time outright (see the
// steal rule in stats.go), the shared host changes how fast the guest's
// CPUs are: for an hour at a time the same binary on the same inputs ran
// a quarter slower with nothing stolen, two busy threads suffering far
// more than one — what one would see when the two vCPUs are moved onto
// the hyperthreads of one core. So after every slice of load a short,
// frozen reference loop is timed on as many threads as the workload
// keeps busy; the median of a run's reference times, as a multiple of
// the loop's nominal time, is the run's slowness, and the run's
// host-time metrics are divided by it. What a run reports is therefore
// time on the reference machine, comparable between runs an hour apart;
// the factor and the wall-clock values are printed beside it. Counts,
// heap sizes, simulated time and the open loop's scheduled rate are
// never scaled.

const (
	spinWords  = 2048
	spinRounds = 160
	// One reference run is refSpins spins and refSyscalls system calls a
	// thread: roughly the stack's own mix of arithmetic and kernel
	// crossings, and about 35 ms.
	refSpins    = 20
	refSyscalls = 40000
	// nominalRef is what one reference run takes on the machine the
	// baseline was recorded on with its CPUs to itself. Changing it, or
	// the loop, rescales every host-time metric: both are frozen.
	nominalRef = 35 * time.Millisecond
)

// spinSink keeps the compiler from discarding the loop.
var spinSink float32

// spin is the arithmetic half of the reference loop: dependent float32
// multiply-adds over two L1-resident vectors with a data-dependent
// branch.
func spin(a, b []float32) float32 {
	var acc float32
	state := uint32(2463534242)
	for r := 0; r < spinRounds; r++ {
		for i := range a {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			if state&7 == 0 {
				acc -= a[i]
			} else {
				acc += a[i] * b[i]
			}
		}
	}
	return acc
}

// hostSlowness runs the reference loop on the given number of threads
// at once and returns how long the slowest took as a multiple of
// nominalRef.
func hostSlowness(threads int) float64 {
	accs := make([]float32, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < threads; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a, b := make([]float32, spinWords), make([]float32, spinWords)
			for i := range a {
				a[i], b[i] = float32(i%7)+0.5, 1/float32(i%5+1)
			}
			var ru syscall.Rusage
			var acc float32
			for r := 0; r < refSpins; r++ {
				acc += spin(a, b)
				for k := 0; k < refSyscalls/refSpins; k++ {
					// Cannot fail with a valid pointer; only its cost matters.
					_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
				}
			}
			accs[c] = acc
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, a := range accs {
		spinSink += a
	}
	return float64(elapsed) / float64(nominalRef)
}
