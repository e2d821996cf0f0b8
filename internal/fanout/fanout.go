// Package fanout runs an indexed loop across goroutines with the
// outcome of the serial loop: callers write each result into their own
// slice by index, and the failure that surfaces is always the
// lowest-indexed one, whatever the worker count and schedule.
package fanout

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0,n) across up to workers
// goroutines, handing out indices through an atomic cursor. The outcome
// is deterministic for any worker count and schedule: the surfaced
// failure is always the lowest-indexed one (a panic at that index takes
// precedence and is re-raised on the calling goroutine). One worker, or
// one index, runs the plain serial loop, which stops at the first error.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics[i] = r
					}
				}()
				errs[i] = fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
