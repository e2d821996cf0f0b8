// Package serve wraps a built engine into a resilient inference
// executor: the layer a production deployment needs between "an engine
// exists" and "requests get answered" once the device stops being
// pristine. It provides per-request deadlines, bounded retry with
// exponential backoff and seeded jitter, a circuit breaker that trips on
// persistent primary-engine faults, health/heartbeat state, and a
// graceful-degradation fallback chain:
//
//	tuned engine  →  lower-batch engine  →  FP32 reference path
//
// The final tier runs the un-optimized model on the host (priced by
// core.UnoptimizedRun, computed by a core.Reference compiled on first
// use), which the accelerator fault plan cannot touch, so a correctly configured executor answers
// every request — at degraded latency and baseline accuracy — even under
// a 100%-fault plan. Every fault seen, retry issued, deadline missed and
// fallback taken is counted.
//
// There are four serving entry points — Executor.DoCtx/DoBatchCtx and
// Pool.DoCtx/DoBatchCtx — over one degradation chain and one fleet
// dispatch (batch.go), each written once over a batch: DoCtx with a nil
// image is a timed-only request, with one image a batch of one. All take
// a request context (nil = no deadline).
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

// ErrDeadlineExceeded is the typed deadline error: the four entry points
// (Executor/Pool DoCtx and DoBatchCtx) return it (wrapped, test with
// errors.Is) under an aborting request context (rtctx.Request.Aborts)
// when the deadline expires before any tier has produced an answer, so a
// serving front-end can map deadline misses to a distinct status code
// and metric instead of string-matching. Without an aborting context —
// nil, or a budget that only records misses — they never return it and
// keep the answer-late-rather-than-never contract.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// Tier identifies which stage of the degradation chain served a request.
type Tier int

const (
	// TierTuned is the primary TRT-style engine.
	TierTuned Tier = iota
	// TierLowBatch is the optional reduced-batch engine (smaller memory
	// footprint, shorter plan).
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

// Config parameterizes an Executor. Engine, Fallback and Device are
// required; everything else has working defaults.
type Config struct {
	// Engine is the primary tuned engine.
	Engine *core.Engine
	// LowBatch is an optional reduced-batch engine tried after the
	// primary fails (nil skips the tier).
	LowBatch *core.Engine
	// Fallback is the pristine un-optimized graph for the FP32 tier. It
	// must have materialized weights if numeric requests are served.
	Fallback *graph.Graph
	// Device the requests run on.
	Device *gpusim.Device
	// Injector is the fault plan to execute under (nil = pristine).
	Injector core.FaultInjector
	// IncludeMemcpy counts the H2D weight copy in each attempt.
	IncludeMemcpy bool
	// DeadlineSec bounds one request's accumulated simulated latency;
	// exceeding it abandons the current tier and degrades (0 = none).
	DeadlineSec float64
	// MaxRetries bounds retries per accelerated tier (so each tier makes
	// at most MaxRetries+1 attempts). Default 2.
	MaxRetries int
	// BackoffBaseSec is the first retry's backoff; it doubles per retry
	// with ±50% seeded jitter, capped at BackoffMaxSec. Defaults 1ms/50ms.
	BackoffBaseSec float64
	BackoffMaxSec  float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive primary-tier terminal failures (default 5).
	BreakerThreshold int
	// BreakerCooldown is how many requests the breaker stays open
	// (short-circuiting the primary tier) before a half-open probe
	// (default 10).
	BreakerCooldown int
	// Seed keys the backoff-jitter stream.
	Seed string
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.MaxRetries <= 0 {
		d.MaxRetries = 2
	}
	if d.BackoffBaseSec <= 0 {
		d.BackoffBaseSec = 1e-3
	}
	if d.BackoffMaxSec <= 0 {
		d.BackoffMaxSec = 50e-3
	}
	if d.BreakerThreshold <= 0 {
		d.BreakerThreshold = 5
	}
	if d.BreakerCooldown <= 0 {
		d.BreakerCooldown = 10
	}
	return d
}

// Result is one served request.
type Result struct {
	// Outputs are the numeric outputs (nil for timed-only requests).
	Outputs []*tensor.Tensor
	// LatencySec is the end-to-end simulated latency: every attempt's
	// run time (including the partial time of failed attempts), stalls,
	// memcpy retries, and backoff waits.
	LatencySec float64
	// Tier that finally served the request.
	Tier Tier
	// Retries issued across all tiers.
	Retries int
	// Degraded reports the request was not served by the tuned engine.
	Degraded bool
	// DeadlineMiss reports the accumulated latency exceeded the deadline
	// (the request is still answered, by a cheaper tier).
	DeadlineMiss bool

	// deadlineSec is this request's effective deadline: the config
	// deadline clamped with the request context's budget, when it carries
	// one. Zero means none.
	deadlineSec float64
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
	// jittered wait would have overshot the request deadline.
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
	c := cfg.withDefaults()
	return &Executor{
		cfg: c,
		ref: reference{g: c.Fallback},
		rng: fixrand.NewKeyed("serve/" + c.Seed + "/" + c.Engine.Key()),
	}, nil
}

// reference is the FP32 tier's numeric path: the pristine fallback graph
// compiled onto the engine schedule (core.Reference) the first time a
// request reaches the tier. A server that never degrades never builds
// it; one that does replays it without allocating per layer.
type reference struct {
	g    *graph.Graph
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
		ex.cooldown = ex.cfg.BreakerCooldown
		return
	}
	if ex.consecFails >= ex.cfg.BreakerThreshold {
		ex.open = true
		ex.cooldown = ex.cfg.BreakerCooldown
		ex.stats.BreakerTrips++
	}
}

// backoff returns the jittered wait before retry attempt (1-based).
func (ex *Executor) backoff(attempt int) float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	d := ex.cfg.BackoffBaseSec * float64(int(1)<<uint(attempt-1))
	if d > ex.cfg.BackoffMaxSec {
		d = ex.cfg.BackoffMaxSec
	}
	return d * (0.5 + ex.rng.Float64()) // ±50% jitter
}

func (ex *Executor) count(f func(s *Stats)) {
	ex.mu.Lock()
	f(&ex.stats)
	ex.mu.Unlock()
}

// effectiveDeadline clamps the configured deadline with a per-request
// budget; zero values mean "no bound" on that side.
func (ex *Executor) effectiveDeadline(deadlineSec float64) float64 {
	eff := ex.cfg.DeadlineSec
	if deadlineSec > 0 && (eff <= 0 || deadlineSec < eff) {
		eff = deadlineSec
	}
	return eff
}

// abortLate decides the terminal-tier fate of a deadline-expired request:
// answer late, or — under an aborting context — abandon with the typed
// error. It must be called before the FP32 tier pays its reference pass,
// so an abandoned request never burns the fallback's latency.
func (ex *Executor) abortLate(res *Result, abort bool) error {
	if !abort || !ex.deadlineExceeded(res) {
		return nil
	}
	ex.count(func(s *Stats) { s.DeadlineAborts++ })
	return fmt.Errorf("serve: request abandoned at %.3gs of a %.3gs budget: %w",
		res.LatencySec, res.deadlineSec, ErrDeadlineExceeded)
}

// DoCtx serves one request: a timed pass over the engine plan and — when
// x is non-nil — a numeric inference whose outputs are returned. A nil
// image is a timed-only request; one image is a batch of one through the
// same degradation chain as DoBatchCtx (doBatch), so the budget, abort
// and layer-boundary-guard rules are DoBatchCtx's. With a nil context
// and a nil or zero-rate injector the result is bit-identical to calling
// Engine.Run and Engine.Infer directly. Under faults it degrades down
// the chain; apart from a deadline abort it returns an error only if the
// FP32 reference path itself cannot serve (a configuration bug, not a
// device fault).
func (ex *Executor) DoCtx(ctx *rtctx.Request, x *tensor.Tensor, runIndex int) (*Result, error) {
	var xs []*tensor.Tensor
	if x != nil {
		xs = []*tensor.Tensor{x}
	}
	res, outs, err := ex.doBatch(ctx, xs, runIndex)
	if err != nil {
		return nil, err
	}
	if len(outs) > 0 {
		res.Outputs = outs[0]
	}
	return &res, nil
}

// retryWait accounts one retry's backoff into res. The modeled wait
// must not accumulate past the request deadline: sleeping beyond the
// remaining budget cannot help the request, it only inflates the
// recorded miss, so the wait is clamped to what is left (the
// backoff-jitter stream still advances, so clamping never perturbs
// later requests). Reports false when the deadline is already gone.
func (ex *Executor) retryWait(attempt int, res *Result) bool {
	res.Retries++
	ex.count(func(s *Stats) { s.Retries++ })
	wait := ex.backoff(attempt)
	if res.deadlineSec > 0 {
		if remain := res.deadlineSec - res.LatencySec; wait > remain {
			if remain < 0 {
				remain = 0
			}
			wait = remain
			ex.count(func(s *Stats) { s.BackoffClamps++ })
		}
	}
	res.LatencySec += wait
	return !ex.deadlineExceeded(res)
}

// deadlineExceeded checks (and counts, once) the request deadline.
func (ex *Executor) deadlineExceeded(res *Result) bool {
	if res.deadlineSec <= 0 || res.LatencySec <= res.deadlineSec {
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
