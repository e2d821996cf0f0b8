package kernels

// Shared worker pool for numeric kernel execution. ExecConv and ExecFC
// partition their output space into contiguous row/unit ranges and fan
// the ranges across a process-wide set of persistent helper goroutines.
// Every output element is still reduced in exactly the order the variant
// dictates and every worker writes a disjoint region of the output
// tensor, so results are bit-identical to serial execution regardless of
// the worker count or how chunks land on workers.
//
// The pool is deliberately simple and allocation-light:
//
//   - helpers are persistent goroutines blocked on a channel; they are
//     spawned lazily up to Workers()-1 and live until StopWorkers
//     retires the generation (an idle helper costs one blocked
//     goroutine);
//   - the submitting goroutine always participates, so a parallelFor
//     cannot deadlock even when every helper is busy with another call
//     (the enlist send is non-blocking — busy helpers are simply not
//     used);
//   - chunks are handed out through an atomic counter, so load balances
//     without any per-chunk allocation;
//   - each participant checks out one execScratch for its whole share of
//     the work, which is what removes the per-output-element partials
//     allocation the serial implementation paid.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// execScratch is one worker's reusable numeric workspace: the partial-sum
// accumulator the variant's tile reduction fills (previously a fresh heap
// allocation per output element). Scratches are pooled, so steady-state
// kernel execution performs no heap allocation in the inner loops.
type execScratch struct {
	partials []float32
}

// tiles returns the partials buffer with capacity for n tile sums.
func (s *execScratch) tiles(n int) []float32 {
	if cap(s.partials) < n {
		s.partials = make([]float32, 0, n)
	}
	return s.partials[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// chunkBody is one parallelizable kernel execution: chunk processes the
// contiguous range [lo,hi) of its work units with a private scratch.
// It is an interface (implemented by pooled exec descriptors) rather
// than a closure so dispatching a kernel allocates nothing.
type chunkBody interface {
	chunk(s *execScratch, lo, hi int)
}

// chunkSet is one parallelFor invocation: [0,n) split into grain-sized
// chunks handed out through an atomic cursor. Sets are pooled; a set is
// only recycled after wg.Wait proves every participant is done with it.
type chunkSet struct {
	next  atomic.Int64
	n     int
	grain int
	body  chunkBody
	wg    sync.WaitGroup
}

var chunkSetPool = sync.Pool{New: func() any { return new(chunkSet) }}

// run processes chunks until the set is exhausted. Each participant
// (caller or helper) runs with its own scratch.
func (cs *chunkSet) run() {
	s := scratchPool.Get().(*execScratch)
	for {
		hi := int(cs.next.Add(int64(cs.grain)))
		lo := hi - cs.grain
		if lo >= cs.n {
			break
		}
		if hi > cs.n {
			hi = cs.n
		}
		cs.body.chunk(s, lo, hi)
	}
	scratchPool.Put(s)
}

// workerPool is the process-wide helper set. Helpers of one generation
// share a quit channel and a WaitGroup; StopWorkers closes the channel
// to retire them all and waits on the group, so the pool's goroutines
// always have a reachable stop path (enforced statically by goleak).
type workerPool struct {
	mu      sync.Mutex
	width   int // participants per parallelFor (caller + helpers)
	helpers int // live helper goroutines (high-water mark of width-1)
	tasks   chan *chunkSet
	quit    chan struct{}   // closed to retire the current helper generation
	hwg     *sync.WaitGroup // counts the current generation's live helpers
}

var pool = newWorkerPool(runtime.GOMAXPROCS(0))

func newWorkerPool(width int) *workerPool {
	p := &workerPool{
		tasks: make(chan *chunkSet),
		quit:  make(chan struct{}),
		hwg:   new(sync.WaitGroup),
	}
	p.setWidth(width)
	return p
}

func (p *workerPool) setWidth(n int) int {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.width
	p.width = n
	for p.helpers < n-1 {
		p.helpers++
		p.hwg.Add(1)
		go p.helper(p.quit, p.hwg)
	}
	return prev
}

func (p *workerPool) helper(quit chan struct{}, hwg *sync.WaitGroup) {
	defer hwg.Done()
	for {
		select {
		case cs := <-p.tasks:
			cs.run()
			cs.wg.Done()
		case <-quit:
			return
		}
	}
}

// stop retires the current helper generation: swap in fresh lifecycle
// state under the lock, then signal and wait outside it (waiting under
// the mutex would hold it across a blocking operation — the exact
// pattern lockorder forbids).
func (p *workerPool) stop() {
	p.mu.Lock()
	if p.helpers == 0 {
		p.mu.Unlock()
		return
	}
	quit, hwg := p.quit, p.hwg
	p.helpers = 0
	p.quit = make(chan struct{})
	p.hwg = new(sync.WaitGroup)
	p.mu.Unlock()
	close(quit)
	hwg.Wait()
}

// Workers returns the degree of parallelism kernel execution uses.
func Workers() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.width
}

// SetWorkers sets the degree of parallelism for kernel execution (minimum
// 1 — the calling goroutine always works) and returns the previous value.
// Helpers beyond the high-water mark are spawned on demand; shrinking
// only narrows future parallelFor calls, it does not tear helpers down
// (use StopWorkers for that).
func SetWorkers(n int) int {
	return pool.setWidth(n)
}

// StopWorkers retires every helper goroutine and blocks until they have
// exited. Kernel execution stays correct afterwards — parallelFor falls
// back to the calling goroutine when no helper answers — but runs
// serially until a SetWorkers call respawns the fleet. Intended for
// drain/shutdown paths and leak-checking tests.
func StopWorkers() {
	pool.stop()
}

// parallelFor runs body over [0,n) in grain-sized chunks across the pool.
// body.chunk receives a private scratch and a contiguous [lo,hi) range;
// it must only write output regions derived from that range. Serial
// fallback (one participant, or a single chunk) runs inline on the
// caller. Steady state allocates nothing: the chunk descriptor is pooled
// and bodies are pooled exec structs.
func parallelFor(n, grain int, body chunkBody) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	width := Workers()
	chunks := (n + grain - 1) / grain
	if width <= 1 || chunks <= 1 {
		s := scratchPool.Get().(*execScratch)
		body.chunk(s, 0, n)
		scratchPool.Put(s)
		return
	}
	cs := chunkSetPool.Get().(*chunkSet)
	cs.next.Store(0)
	cs.n, cs.grain, cs.body = n, grain, body
	helpers := width - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
enlist:
	for i := 0; i < helpers; i++ {
		cs.wg.Add(1)
		select {
		case pool.tasks <- cs:
		default:
			// Every helper is busy with another kernel call: the caller
			// does the remaining work itself.
			cs.wg.Done()
			break enlist
		}
	}
	cs.run()
	cs.wg.Wait()
	cs.body = nil // drop the tensor-holding descriptor before pooling
	chunkSetPool.Put(cs)
}
