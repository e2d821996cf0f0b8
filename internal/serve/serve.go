// Package serve wraps a built engine into a resilient inference
// executor: the layer a production deployment needs between "an engine
// exists" and "requests get answered" once the device stops being
// pristine. It provides per-request deadlines, bounded retry with
// exponential backoff and seeded jitter, a circuit breaker that trips on
// persistent primary-engine faults, health/heartbeat state, and a
// graceful-degradation fallback chain:
//
//	tuned engine  →  standby engine  →  FP32 reference path
//
// The final tier runs the un-optimized model on the host (priced by
// core.UnoptimizedRun, computed by a core.Reference compiled on first
// use), which the accelerator fault plan cannot touch, so a correctly configured executor answers
// every request — at degraded latency and baseline accuracy — even under
// a 100%-fault plan. Every fault seen, retry issued, deadline missed and
// fallback taken is counted.
//
// Each server has one entry point, DoBatchCtx — Executor.DoBatchCtx
// over the degradation chain and Pool.DoBatchCtx over the fleet dispatch
// (batch.go); a single request is a batch of one. Both take a request
// context whose budget is the request's only deadline (nil = none).
package serve

import (
	"errors"
	"fmt"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// ErrDeadlineExceeded is the typed deadline error: Executor.DoBatchCtx
// and Pool.DoBatchCtx return it (wrapped, test with errors.Is) under an
// aborting request context (rtctx.Request.Aborts) when the deadline
// expires before any tier has produced an answer, so a serving
// front-end can map deadline misses to a distinct status code and
// metric instead of string-matching. Without an aborting context —
// nil, or a budget that only records misses — they never return it and
// keep the answer-late-rather-than-never contract.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// Tier identifies which stage of the degradation chain served a request.
type Tier int

const (
	// TierTuned is the primary TRT-style engine.
	TierTuned Tier = iota
	// TierLowBatch is the optional standby engine (Config.LowBatch),
	// tried after the primary fails.
	TierLowBatch
	// TierFP32 is the un-optimized host reference path.
	TierFP32

	numTiers
)

var tierNames = [numTiers]string{"tuned", "low-batch", "fp32"}

// String implements fmt.Stringer.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Allocator is the memory-pressure admission interface
// (faults.Injector implements it). Alloc reserves a request's per-thread
// footprint; Free releases it.
type Allocator interface {
	Alloc(bytes float64) error
	Free(bytes float64)
}

// The executor's retry and circuit-breaker policy.
const (
	// maxRetries bounds retries per accelerated tier: each tier makes at
	// most maxRetries+1 attempts.
	maxRetries = 2
	// backoffBaseSec is the first retry's backoff; it doubles per retry
	// with ±50% seeded jitter, capped at backoffMaxSec.
	backoffBaseSec = 1e-3
	backoffMaxSec  = 50e-3
	// breakerThreshold consecutive primary-tier terminal failures trip
	// the breaker, which then short-circuits the primary tier for
	// breakerCooldown requests before a half-open probe.
	breakerThreshold = 5
	breakerCooldown  = 10
)

// Config parameterizes an Executor. Engine, Fallback and Device are
// required; LowBatch and Injector are optional.
type Config struct {
	// Engine is the primary tuned engine.
	Engine *core.Engine
	// LowBatch is an optional standby engine, such as a second build of
	// the model, tried after the primary fails (nil skips the tier).
	LowBatch *core.Engine
	// Fallback is the pristine un-optimized graph for the FP32 tier. It
	// must have materialized weights if numeric requests are served.
	Fallback *graph.Graph
	// Device the requests run on.
	Device *gpusim.Device
	// Injector is the fault plan to execute under (nil = pristine).
	Injector core.FaultInjector
	// Seed keys the backoff-jitter stream.
	Seed string
}

// Stats are the executor's cumulative degradation counters.
type Stats struct {
	Requests       uint64
	Retries        uint64
	DeadlineMisses uint64
	AllocRejects   uint64
	TierServed     [numTiers]uint64
	BreakerTrips   uint64
	BreakerSkips   uint64 // requests that short-circuited the open breaker
	TierFailures   [numTiers]uint64
	// BackoffClamps counts retry backoffs truncated because the full
	// jittered wait would have overshot the request budget.
	BackoffClamps uint64
	// DeadlineAborts counts requests abandoned with ErrDeadlineExceeded
	// (aborting request contexts only; any other request is answered).
	DeadlineAborts uint64
}

// Health is the executor's heartbeat view.
type Health struct {
	// State is "healthy", "degraded" (last request fell back) or "open"
	// (circuit breaker tripped).
	State string
	// ConsecutiveFailures of the primary tier.
	ConsecutiveFailures int
	// LastTier that served a request.
	LastTier Tier
	Requests uint64
}

// Executor is the resilient inference front end. Safe for concurrent use.
type Executor struct {
	cfg Config
	ref reference // the FP32 tier, over cfg.Fallback

	mu          sync.Mutex
	rng         *fixrand.Source
	consecFails int
	open        bool
	cooldown    int // requests left before a half-open probe
	lastTier    Tier
	stats       Stats
}

// New validates the config and builds an executor.
func New(cfg Config) (*Executor, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: config needs a primary engine")
	}
	if cfg.Device == nil {
		return nil, fmt.Errorf("serve: config needs a device")
	}
	if cfg.Fallback == nil {
		return nil, fmt.Errorf("serve: config needs a fallback graph")
	}
	if !cfg.Fallback.Finalized() {
		return nil, fmt.Errorf("serve: fallback graph is not finalized")
	}
	return &Executor{
		cfg: cfg,
		ref: reference{g: cfg.Fallback, sec: core.UnoptimizedRun(cfg.Fallback, cfg.Device)},
		rng: fixrand.NewKeyed("serve/" + cfg.Seed + "/" + cfg.Engine.Key()),
	}, nil
}

// reference is the FP32 tier of both servers: the pristine fallback
// graph, compiled onto the engine schedule (core.Reference) the first
// time a request reaches the tier, and its price. A server that never
// degrades never compiles it; one that does replays it without
// allocating per layer.
type reference struct {
	g *graph.Graph
	// sec is one image's pass on the serving device (core.UnoptimizedRun):
	// the host path has no batched kernels, so every image pays it.
	sec  float64
	once sync.Once
	e    *core.Engine
	err  error
}

// infer runs one image through the reference.
func (r *reference) infer(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	r.once.Do(func() { r.e, r.err = core.Reference(r.g) })
	if r.err != nil {
		return nil, r.err
	}
	return r.e.Infer(x)
}

// Stats returns a snapshot of the degradation counters.
func (ex *Executor) Stats() Stats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.stats
}

// Health returns the heartbeat state.
func (ex *Executor) Health() Health {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	h := Health{
		ConsecutiveFailures: ex.consecFails,
		LastTier:            ex.lastTier,
		Requests:            ex.stats.Requests,
	}
	switch {
	case ex.open:
		h.State = "open"
	case ex.lastTier != TierTuned && ex.stats.Requests > 0:
		h.State = "degraded"
	default:
		h.State = "healthy"
	}
	return h
}

// admitTuned decides whether this request may try the primary tier,
// honouring the circuit breaker's open/half-open cycle.
func (ex *Executor) admitTuned() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if !ex.open {
		return true
	}
	if ex.cooldown > 0 {
		ex.cooldown--
		ex.stats.BreakerSkips++
		return false
	}
	// Half-open: let one probe through; recordPrimary re-opens on failure.
	return true
}

func (ex *Executor) recordPrimary(ok bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ok {
		ex.consecFails = 0
		ex.open = false
		return
	}
	ex.consecFails++
	if ex.open {
		// Failed half-open probe: re-arm the cooldown.
		ex.cooldown = breakerCooldown
		return
	}
	if ex.consecFails >= breakerThreshold {
		ex.open = true
		ex.cooldown = breakerCooldown
		ex.stats.BreakerTrips++
	}
}

// backoff returns the jittered wait before retry attempt (1-based).
func (ex *Executor) backoff(attempt int) float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	d := backoffBaseSec * float64(int(1)<<uint(attempt-1))
	if d > backoffMaxSec {
		d = backoffMaxSec
	}
	return d * (0.5 + ex.rng.Float64()) // ±50% jitter
}

func (ex *Executor) count(f func(s *Stats)) {
	ex.mu.Lock()
	f(&ex.stats)
	ex.mu.Unlock()
}

// abortLate decides the terminal-tier fate of a budget-expired request:
// answer late, or — under an aborting context — abandon with the typed
// error. It must be called before the FP32 tier pays its reference pass,
// so an abandoned request never burns the fallback's latency.
func (ex *Executor) abortLate(res *BatchResult, ctx *rtctx.Request) error {
	if !ctx.Aborts() || !ex.deadlineExceeded(res, ctx) {
		return nil
	}
	ex.count(func(s *Stats) { s.DeadlineAborts++ })
	return fmt.Errorf("serve: request abandoned at %.3gs of a %.3gs budget: %w",
		res.LatencySec, ctx.BudgetSec, ErrDeadlineExceeded)
}

// retryWait accounts one retry's backoff into res. The modeled wait
// must not accumulate past the request budget: sleeping beyond what is
// left cannot help the request, it only inflates the recorded miss, so
// the wait is clamped to the remainder (the backoff-jitter stream still
// advances, so clamping never perturbs later requests). Reports false
// when the budget is already gone.
func (ex *Executor) retryWait(attempt int, res *BatchResult, ctx *rtctx.Request) bool {
	res.Retries++
	ex.count(func(s *Stats) { s.Retries++ })
	wait := ex.backoff(attempt)
	if remain := ctx.RemainingBudgetSec(res.LatencySec); wait > remain {
		wait = remain
		ex.count(func(s *Stats) { s.BackoffClamps++ })
	}
	res.LatencySec += wait
	return !ex.deadlineExceeded(res, ctx)
}

// deadlineExceeded checks (and counts, once) the request budget.
func (ex *Executor) deadlineExceeded(res *BatchResult, ctx *rtctx.Request) bool {
	if !ctx.Overran(res.LatencySec) {
		return false
	}
	if !res.DeadlineMiss {
		res.DeadlineMiss = true
		ex.count(func(s *Stats) { s.DeadlineMisses++ })
	}
	return true
}

func (ex *Executor) setLastTier(t Tier) {
	ex.mu.Lock()
	ex.lastTier = t
	ex.mu.Unlock()
}
