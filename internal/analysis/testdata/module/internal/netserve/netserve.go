// Package netserve is a goleak fixture: the package path is on the
// audited goroutine list, so every go statement here must launch a
// goroutine with a reachable stop path. `work` is never closed anywhere
// in the module — spinning on it is flagged; `feed` is closed by Close
// and `quit` gives the select loop its exit. A marker comment naming an
// analyzer means the line must produce exactly one finding of it.
package netserve

// Batcher mirrors the real front-end's goroutine shapes.
type Batcher struct {
	work chan int
	feed chan int
	quit chan struct{}
}

// StartSpin launches an escape-free infinite loop.
func (b *Batcher) StartSpin() {
	go func() { // want:goleak
		for {
			b.work <- 1
		}
	}()
}

// StartRange launches a named helper that ranges over a channel no
// module code ever closes.
func (b *Batcher) StartRange() {
	go b.pump() // want:goleak
}

func (b *Batcher) pump() {
	for range b.work {
	}
}

// StartStoppable selects on the quit channel: the loop can return, no
// finding.
func (b *Batcher) StartStoppable() {
	go func() {
		for {
			select {
			case <-b.work:
			case <-b.quit:
				return
			}
		}
	}()
}

// StartDrain ranges over the channel Close closes: terminates once the
// producer is done, no finding.
func (b *Batcher) StartDrain() {
	go func() {
		for range b.feed {
		}
	}()
}

// StartPinned is a sanctioned process-lifetime pump: suppressed, with
// the reason surfaced in rtlint's output.
func (b *Batcher) StartPinned() {
	//rt:allow goleak -- fixture proves process-lifetime goroutines can be sanctioned
	go func() {
		for {
			b.work <- 0
		}
	}()
}

// Stop ends the stoppable loop; Close ends the drain loop.
func (b *Batcher) Stop()  { close(b.quit) }
func (b *Batcher) Close() { close(b.feed) }
