// Package serve is a lockorder and deadlineflow fixture.
// Executor.DoBatchCtx matches the seeded blocking entry points
// (DefaultBlockingFuncs), so holding a mutex across it is flagged
// without any call-graph proof; the other cases exercise direct
// blocking operations, transitive blocking through a module callee, and
// the context-sibling rule. A marker comment naming an analyzer means
// the line must produce exactly one finding of it.
package serve

import (
	"sync"
	"time"

	"edgeinfer/internal/rtctx"
)

// Executor mirrors the real serving executor so the seeded blocking
// list resolves against this module.
type Executor struct{ n int }

// DoBatchCtx matches "(*edgeinfer/internal/serve.Executor).DoBatchCtx".
func (ex *Executor) DoBatchCtx(x int) int { return x + ex.n }

// Queue is the lock-discipline specimen.
type Queue struct {
	mu sync.Mutex
	ch chan int
	ex *Executor
}

// SendUnderLock holds the mutex across a channel send.
func (q *Queue) SendUnderLock(v int) {
	q.mu.Lock()
	q.ch <- v // want:lockorder
	q.mu.Unlock()
}

// SleepUnderLock holds a deferred-unlock mutex across time.Sleep.
func (q *Queue) SleepUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond) // want:lockorder
}

// InferUnderLock holds the mutex across a seeded serving entry point.
func (q *Queue) InferUnderLock(x int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ex.DoBatchCtx(x) // want:lockorder
}

// DrainUnderLock blocks transitively: drain receives from a channel.
func (q *Queue) DrainUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drain() // want:lockorder
}

func (q *Queue) drain() int { return <-q.ch }

// ReleaseFirst drops the lock before blocking: no finding.
func (q *Queue) ReleaseFirst(v int) {
	q.mu.Lock()
	q.mu.Unlock()
	q.ch <- v
}

// PollUnderLock uses select-with-default under the lock — non-blocking
// by construction, no finding.
func (q *Queue) PollUnderLock(v int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// AllowedSend is sanctioned with a reason: suppressed, reason surfaced.
func (q *Queue) AllowedSend(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v //rt:allow lockorder -- fixture proves compact-directive suppression
}

// Run and RunCtx are the context-sibling pair.
func (q *Queue) Run(x int) int { return x }

// RunCtx is Run under a request context.
func (q *Queue) RunCtx(ctx *rtctx.Request, x int) int {
	_ = ctx.Budget()
	return x
}

// ServeRequest drops its request context: Run has a context-aware
// sibling.
func (q *Queue) ServeRequest(ctx *rtctx.Request, x int) int {
	return q.Run(x) // want:deadlineflow
}

// ServeThreaded threads the context into the Ctx sibling: no finding.
func (q *Queue) ServeThreaded(ctx *rtctx.Request, x int) int {
	return q.RunCtx(ctx, x)
}

// ServeAllowed documents why the plain call is correct here.
func (q *Queue) ServeAllowed(ctx *rtctx.Request, x int) int {
	_ = ctx.Budget()
	return q.Run(x) //rt:allow deadlineflow -- fixture: budget is checked before dispatch
}
