package netserve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// request is one admitted inference request waiting for its batch. Its
// real-time identity — budget, priority band, tenant, arrival and
// wall-clock deadline — lives in one rtctx.Request the handler stamps
// in place (one allocation an arrival), which the queue orders by and
// the backend threads down to the layer-boundary guard.
type request struct {
	x   *tensor.Tensor
	ctx rtctx.Request
	// seq is the admission sequence number, stamped under the queue
	// lock: the last key of both disciplines. It breaks the ties band
	// and rtctx.EarlierThan leave (two requests with identical deadline,
	// band and arrival compare false both ways), so the queue is a
	// strict total order: equals serve in admission order, and a full
	// queue's tail — its eviction candidate — never depends on how an
	// insertion happened to place incomparable elements.
	seq uint64
	// resp receives exactly one response (buffered so the batcher never
	// blocks on a handler that stopped listening).
	resp chan response
	// canceled is set by the handler when the client disconnects; the
	// batcher skips canceled requests instead of wedging a batch slot on
	// a dead client.
	canceled atomic.Bool
}

func (r *request) high() bool { return r.ctx.Band == rtctx.BandHigh }

// deliver hands the request its response. Non-blocking: the channel has
// capacity 1 and each request is answered exactly once, so the default
// arm only guards against bugs, never drops a real answer.
func (r *request) deliver(resp response) {
	select {
	case r.resp <- resp:
	default:
	}
}

// response is what the handler writes back.
type response struct {
	status     int
	retryAfter bool
	reply      any // InferReply or ErrReply, JSON-marshaled by the handler
}

// modelQueue is one model's bounded coalescing queue plus the single
// batcher goroutine that drains it. Admission, eviction and shedding
// happen under mu; the batcher packs admitted requests into
// size-or-window-triggered batches and serves them through the backend.
//
// One ordered queue; the discipline is its key (before). The head is
// served first, and a full queue evicts its tail for a newcomer that
// sorts before it and sheds the newcomer otherwise. Under the default
// FIFO the key is (band, seq): high band first, a high arrival evicts
// the youngest queued low. Under EDF it is (deadline, band, arrival,
// seq): earliest deadline first, and a more urgent arrival evicts the
// latest-deadline member (drop-late). A positive wcetSec arms WCET
// admission: a request whose whole budget is below the certified
// worst-case service bound is shed at the door — it would only be
// queued to miss.
type modelQueue struct {
	model    string
	be       Backend
	maxBatch int
	window   time.Duration
	depth    int
	edf      bool
	wcetSec  float64

	mu       sync.Mutex
	queued   []*request // ordered by before: served from the head, evicted from the tail
	nextSeq  uint64
	draining bool
	stats    ModelStats
	runIndex int

	// wake (capacity 1) nudges the batcher after an admit; drainCh is
	// closed exactly once when draining starts.
	wake      chan struct{}
	drainCh   chan struct{}
	drainOnce sync.Once
}

func newModelQueue(model string, be Backend, maxBatch int, window time.Duration, depth int, edf bool, wcetSec float64) *modelQueue {
	return &modelQueue{
		model:    model,
		be:       be,
		maxBatch: maxBatch,
		window:   window,
		depth:    depth,
		edf:      edf,
		wcetSec:  wcetSec,
		wake:     make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
	}
}

func (q *modelQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// beginDrain flips the queue into drain mode: no further admissions,
// and the batcher flushes what is queued and exits. Idempotent.
func (q *modelQueue) beginDrain() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	q.drainOnce.Do(func() { close(q.drainCh) })
}

func shedResp(reason string) response {
	return response{
		status:     503,
		retryAfter: true,
		reply:      ErrReply{Error: "overloaded", Reason: reason},
	}
}

// before is the discipline: the queue's strict total order. FIFO
// compares (band, seq), EDF rtctx.EarlierThan (deadline, then band,
// then arrival) and then seq.
func (q *modelQueue) before(a, b *request) bool {
	if q.edf {
		if a.ctx.EarlierThan(&b.ctx) {
			return true
		}
		if b.ctx.EarlierThan(&a.ctx) {
			return false
		}
	} else if a.high() != b.high() {
		return a.high()
	}
	return a.seq < b.seq
}

// admit applies the admission policy. It returns nil when the request
// was queued; otherwise the response the caller must write (a shed).
//
// INVARIANT — gate order is draining, then WCET, then full-queue, and
// tests pin it (TestAdmitGateOrderInvariant):
//
//  1. draining sheds everything: a server past beginDrain must never
//     accept work, however urgent, or Drain cannot terminate;
//  2. WCET admission sheds a request whose budget the certified bound
//     proves unmeetable (the 503 arrives in microseconds instead of a
//     504 after the budget burned) — before the full-queue policy, so
//     a hopeless request can never evict a feasible one;
//  3. the full-queue rule runs last, and only over requests that could
//     still meet their deadlines: evict the tail iff the newcomer sorts
//     before it, else shed the newcomer.
//
// Every shed is an explicit 503 with Retry-After, never a hang.
func (q *modelQueue) admit(req *request) *response {
	q.mu.Lock()
	if q.draining {
		q.countShed(req.high())
		q.mu.Unlock()
		r := shedResp("draining")
		return &r
	}
	if q.wcetSec > 0 && req.ctx.Budget() < q.wcetSec {
		q.stats.WCETShed++
		q.countShed(req.high())
		q.mu.Unlock()
		r := shedResp("wcet")
		return &r
	}
	req.seq = q.nextSeq
	q.nextSeq++
	var victim *request
	if n := len(q.queued); n >= q.depth {
		// The tail is the unique maximum and the member most likely
		// already hopeless: the youngest low under FIFO, the latest
		// deadline under EDF (see TestEDFEvictionTieBreakIsDeterministic).
		if victim = q.queued[n-1]; !q.before(req, victim) {
			q.countShed(req.high())
			q.mu.Unlock()
			r := shedResp("queue-full")
			return &r
		}
		q.queued = q.queued[:n-1]
		q.stats.Evicted++
		if q.edf {
			q.stats.EDFEvictions++
		}
		q.countShed(victim.high())
	}
	i := sort.Search(len(q.queued), func(i int) bool {
		return q.before(req, q.queued[i])
	})
	q.queued = append(q.queued, nil)
	copy(q.queued[i+1:], q.queued[i:])
	q.queued[i] = req
	if d := len(q.queued); d > q.stats.MaxQueueDepth {
		q.stats.MaxQueueDepth = d
	}
	q.stats.Accepted++
	q.mu.Unlock()
	if victim != nil {
		victim.deliver(shedResp("evicted"))
	}
	q.signal()
	return nil
}

func (q *modelQueue) countShed(high bool) {
	q.stats.Shed++
	if high {
		q.stats.ShedHigh++
	} else {
		q.stats.ShedLow++
	}
}

func (q *modelQueue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queued) == 0
}

// popLive pops the queue's head, the next serviceable request.
// Canceled requests are dropped silently (the handler already counted
// the disconnect); requests whose deadline has already expired are
// answered 504 on the spot — a queue must never spend a batch slot on
// an answer nobody can use.
func (q *modelQueue) popLive() *request {
	for {
		q.mu.Lock()
		if len(q.queued) == 0 {
			q.mu.Unlock()
			return nil
		}
		r := q.queued[0]
		if q.queued = q.queued[1:]; len(q.queued) == 0 {
			q.queued = nil
		}
		if r.canceled.Load() {
			q.mu.Unlock()
			continue
		}
		if r.ctx.Expired(time.Now()) {
			q.stats.Expired++
			q.stats.DeadlineMisses++
			q.mu.Unlock()
			r.deliver(response{status: 504, reply: ErrReply{Error: "deadline exceeded in queue", Reason: "deadline"}})
			continue
		}
		q.mu.Unlock()
		return r
	}
}

// next blocks until a serviceable request is available, or returns nil
// when the queue is draining and empty (the batcher's exit condition).
func (q *modelQueue) next() *request {
	for {
		if r := q.popLive(); r != nil {
			return r
		}
		q.mu.Lock()
		draining := q.draining
		q.mu.Unlock()
		if draining && q.empty() {
			return nil
		}
		select {
		case <-q.wake:
		case <-q.drainCh:
			if q.empty() {
				return nil
			}
		}
	}
}

// gather coalesces requests behind first into one batch: it fills up to
// maxBatch, or until the batch window expires — whichever comes first.
// During drain the window is forfeited: whatever is queued flushes
// immediately.
func (q *modelQueue) gather(first *request) []*request {
	batch := []*request{first}
	if q.maxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(q.window)
	defer timer.Stop()
	for len(batch) < q.maxBatch {
		if r := q.popLive(); r != nil {
			batch = append(batch, r)
			continue
		}
		select {
		case <-q.wake:
		case <-timer.C:
			return batch
		case <-q.drainCh:
			return batch
		}
	}
	return batch
}

// run is the batcher goroutine: pop, coalesce, serve, respond — until
// drained.
func (q *modelQueue) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		first := q.next()
		if first == nil {
			return
		}
		q.serveBatch(q.gather(first))
	}
}

// batchCtx derives the batch's request context from its members: the
// budget is the tightest member's remaining deadline, the band the
// highest member band (one urgent member makes the whole launch
// urgent), the tenant is kept only when every member agrees (a batch
// has no single tenant otherwise). The context aborts: a batch the
// layer-boundary guard proves hopeless stops mid-graph.
func batchCtx(batch []*request, start time.Time) *rtctx.Request {
	minRem := math.MaxFloat64
	deadline := time.Time{}
	band := rtctx.BandLow
	tenant := batch[0].ctx.Tenant
	for _, r := range batch {
		if rem := r.ctx.RemainingSec(start); rem < minRem {
			minRem = rem
			deadline = r.ctx.Deadline
		}
		if r.ctx.Band == rtctx.BandHigh {
			band = rtctx.BandHigh
		}
		if r.ctx.Tenant != tenant {
			tenant = ""
		}
	}
	if minRem <= 0 {
		// popLive admitted it un-expired; the clock moved since. Give the
		// batch a hair of budget rather than a guaranteed abort.
		minRem = 1e-6
	}
	return &rtctx.Request{
		BudgetSec: minRem,
		Abort:     true,
		Band:      band,
		Tenant:    tenant,
		Arrival:   start,
		Deadline:  deadline,
	}
}

// serveBatch runs one coalesced batch through the backend and fans the
// per-request responses out. The batch's serving budget is its tightest
// member deadline, threaded as one rtctx.Request through the backend's
// budget-carrying path down to the layer-boundary guard.
func (q *modelQueue) serveBatch(batch []*request) {
	start := time.Now()
	xs := make([]*tensor.Tensor, len(batch))
	for i, r := range batch {
		xs[i] = r.x
	}
	bctx := batchCtx(batch, start)
	q.mu.Lock()
	idx := q.runIndex
	q.runIndex++
	q.stats.Batches++
	q.stats.BatchedInputs += uint64(len(batch))
	q.mu.Unlock()

	ans, err := q.be.ServeBatch(bctx, xs, idx)
	if err == nil && (ans == nil || len(ans.Results) != len(batch)) {
		// A backend that breaks its contract fails the batch, not the
		// batcher goroutine.
		err = fmt.Errorf("netserve: backend did not answer each of %d inputs once", len(batch))
	}
	switch {
	case err != nil && errors.Is(err, serve.ErrDeadlineExceeded):
		q.mu.Lock()
		q.stats.Aborted += uint64(len(batch))
		q.stats.DeadlineMisses += uint64(len(batch))
		q.mu.Unlock()
		for _, r := range batch {
			r.deliver(response{status: 504, reply: ErrReply{Error: "deadline exceeded in service", Reason: "deadline"}})
		}
	case err != nil:
		q.mu.Lock()
		q.stats.Errors += uint64(len(batch))
		q.mu.Unlock()
		for _, r := range batch {
			r.deliver(response{status: 500, reply: ErrReply{Error: err.Error(), Reason: "backend"}})
		}
	default:
		done := time.Now()
		var served, misses uint64
		for i, r := range batch {
			a := ans.Results[i]
			miss := ans.DeadlineMiss || r.ctx.Expired(done)
			served++
			if miss {
				misses++
			}
			arg := -1
			if len(a.Outputs) > 0 {
				arg = argmax(a.Outputs[0])
			}
			r.deliver(response{status: 200, reply: InferReply{
				Model:        q.model,
				Argmax:       arg,
				LatencySec:   ans.LatencySec,
				QueueMS:      float64(start.Sub(r.ctx.Arrival)) / float64(time.Millisecond),
				BatchSize:    len(batch),
				Tier:         a.Tier,
				Tenant:       r.ctx.Tenant,
				Degraded:     a.Degraded,
				DeadlineMiss: miss,
			}})
		}
		q.mu.Lock()
		q.stats.Served += served
		q.stats.DeadlineMisses += misses
		q.mu.Unlock()
	}
}

// snapshot copies the stats under the lock, folding in the live depth.
func (q *modelQueue) snapshot() ModelStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.QueueDepth = len(q.queued)
	return s
}

// noteClientGone counts a mid-request disconnect (the handler observed
// the context cancellation; the batcher will skip the request).
func (q *modelQueue) noteClientGone() {
	q.mu.Lock()
	q.stats.ClientGone++
	q.mu.Unlock()
}

// argmax returns the index of the largest element (lowest index wins
// ties), or -1 for an empty tensor.
func argmax(t *tensor.Tensor) int {
	if t == nil || len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}
