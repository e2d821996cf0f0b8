package core

import (
	"errors"
	"fmt"
	"math"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// Fault-aware execution. RunFaulty (the timed pass; Run is RunFaulty
// without an injector) and the compiled schedule behind InferBatchCtx
// consult a FaultInjector (implemented by
// internal/faults) at every point where a real deployment can go wrong —
// the H2D weight copy, each kernel launch, and the numeric path's weights
// and activations. A nil injector reproduces Run/Infer bit-for-bit: the
// injector draws from its own seeded stream, never from the run's jitter
// stream, so enabling injection at fault rate zero changes nothing.

// Sentinel errors for transient accelerator faults. Callers (the serve
// package) match with errors.Is to decide between retry and fallback.
var (
	// ErrLaunchFailed is a transient kernel-launch failure (the analogue
	// of cudaErrorLaunchFailure): the submitted kernel never ran.
	ErrLaunchFailed = errors.New("core: transient kernel-launch failure")
	// ErrMemcpyFailed is a host-to-device copy that kept failing past the
	// injector's retry budget.
	ErrMemcpyFailed = errors.New("core: host-to-device memcpy failed")
)

// LaunchFault is the injector's verdict for one kernel launch.
type LaunchFault struct {
	// Fail aborts the run at this launch with ErrLaunchFailed.
	Fail bool
	// StallSec is extra stream-stall time serialized before the kernel
	// (a blocked stream, preempted context, or sync interference).
	StallSec float64
	// ClockScale scales the effective GPU clock for this launch
	// (0 or 1 = nominal; 0.5 = DVFS throttled to half clock).
	ClockScale float64
}

// FaultInjector is the hook surface RunFaulty and numeric inference
// (execute) consult; internal/faults provides the deterministic, seeded
// implementation.
type FaultInjector interface {
	// MemcpyH2D is consulted once per weight copy. It returns how many
	// times the copy had to be retried (each retry pays the full copy
	// cost again) and a terminal error if it never succeeded.
	MemcpyH2D(bytes int64) (retries int, err error)
	// Launch is consulted once per kernel launch (timed path) or per
	// layer (numeric path).
	Launch(index int, symbol string) LaunchFault
	// CorruptWeights may return a bit-flipped copy of a weight tensor.
	// It must never mutate w in place — engines are shared.
	CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor
	// CorruptActivation may flip bits in a freshly computed activation,
	// in place.
	CorruptActivation(layer string, y *tensor.Tensor)
}

// RunFaulty executes the engine plan like Run while consulting the
// injector. On a terminal fault it returns the partial result (the
// latency burned before the fault, including the failed launch's
// submission) together with the error, so callers can account for wasted
// time when retrying.
func (e *Engine) RunFaulty(cfg RunConfig, fi FaultInjector) (RunResult, error) {
	dev := cfg.Device
	jit := fixrand.NewKeyed(fmt.Sprintf("run/%s/%s@%.0f/%d/prof=%v",
		e.Key(), dev.Spec.Short(), dev.ClockMHz, cfg.RunIndex, cfg.Profile))
	var res RunResult
	if cfg.IncludeMemcpy {
		res.MemcpySec = dev.MemcpyH2DSec(e.WeightBytes(), e.WeightChunks())
		// Copy jitter (pageable memory, CPU contention).
		res.MemcpySec *= math.Exp(runJitterSigma * jit.NormFloat64())
		if fi != nil {
			retries, err := fi.MemcpyH2D(e.WeightBytes())
			res.MemcpySec *= float64(1 + retries)
			if err != nil {
				res.LatencySec = res.MemcpySec
				return res, fmt.Errorf("%w: %v", ErrMemcpyFailed, err)
			}
		}
	}
	total := res.MemcpySec
	for i, l := range e.Launches {
		t := l.Spec.TimeSec(dev)
		t *= math.Exp(runJitterSigma * jit.NormFloat64())
		if cfg.Profile {
			t = t*profSerialFactor + profPerLaunchSec
		} else {
			t *= overlapFactor
		}
		if fi != nil {
			lf := fi.Launch(i, l.Symbol)
			if lf.ClockScale > 0 && lf.ClockScale < 1 {
				t /= lf.ClockScale
			}
			t += lf.StallSec
			if lf.Fail {
				// The failed submission still burned its host overhead.
				res.LatencySec = total + t + dev.LaunchOverheadSec()
				return res, fmt.Errorf("launch %d (%s): %w", i, l.Symbol, ErrLaunchFailed)
			}
		}
		t += dev.LaunchOverheadSec()
		res.Kernels = append(res.Kernels, KernelInvocation{Symbol: l.Symbol, Layers: l.Layers, DurSec: t})
		total += t
	}
	res.LatencySec = total
	return res, nil
}
