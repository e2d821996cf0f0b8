// Package faults implements a deterministic fault-injection subsystem
// for the simulated inference stack. The paper characterizes TensorRT
// engines on pristine, pinned devices; related work (Pasandideh et al.,
// fault injection on edge object detection; Chakraborty et al.,
// contended concurrent inference on Jetson) shows that deployed edge
// devices are anything but pristine. A faults.Plan describes how bad the
// device is allowed to get — DVFS/thermal clock drops with recovery
// ramps, transient kernel-launch failures, stream stalls, H2D memcpy
// retries, memory-pressure allocation failures, and bit-flip corruption
// of engine weights and activations — and an Injector replays that plan
// from a fixrand stream, so every scenario is exactly reproducible.
//
// The Injector implements core.FaultInjector; internal/serve runs each
// replica of a serve.Pool under one.
package faults

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindClockDrop is a DVFS/thermal event: the effective GPU clock
	// drops and then ramps back over subsequent launches.
	KindClockDrop Kind = iota
	// KindLaunchFail is a transient kernel-launch failure.
	KindLaunchFail
	// KindStreamStall is serialized dead time before a launch.
	KindStreamStall
	// KindMemcpyRetry is a failed H2D copy attempt that was retried.
	KindMemcpyRetry
	// KindMemcpyFail is an H2D copy that exhausted its retry budget.
	KindMemcpyFail
	// KindAllocFail is a memory-pressure allocation failure when a
	// request tries to reserve its per-thread footprint.
	KindAllocFail
	// KindBitFlip is a corruption event in weights or activations.
	KindBitFlip
	// KindLatencyInflate is a sustained per-launch slowdown scoped to one
	// replica (a sick clone, not a sick device): every launch runs
	// InflateFactor times slower until the replica is rebuilt.
	KindLatencyInflate
	// KindStuckKernel is a single kernel symbol that hangs for
	// StuckStallSec on every invocation — the paper's tactic-tuned plans
	// make this replica-specific, since diverged builds pick different
	// kernels for the same layer.
	KindStuckKernel
	// KindSilentCorrupt is a value-level corruption of an output
	// activation with no error signal: the fault the latency watchdog
	// cannot see and only quorum voting catches.
	KindSilentCorrupt
	// KindSlowClient is a network-layer fault: a client that dribbles its
	// request body a few bytes at a time, tying up a server read path.
	KindSlowClient
	// KindClientGone is a network-layer fault: a client that disconnects
	// mid-request, after the server has already admitted the work.
	KindClientGone
	// KindBurst is a network-layer fault: an open-loop arrival burst, a
	// multiple of the nominal request rate landing in one tick.
	KindBurst

	nKinds
)

var kindNames = [nKinds]string{
	"clock-drop", "launch-fail", "stream-stall",
	"memcpy-retry", "memcpy-fail", "alloc-fail", "bit-flip",
	"latency-inflate", "stuck-kernel", "silent-corrupt",
	"slow-client", "client-gone", "burst",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Plan is a complete, declarative fault scenario. All rates are
// per-consultation probabilities in [0, 1]: per kernel launch for
// launch/stall/clock faults, per weight copy for memcpy faults, per
// request for allocation faults, per layer for bit flips.
type Plan struct {
	// Seed names the scenario; together with the per-injector scenario
	// key it selects the fixrand stream.
	Seed string

	// LaunchFailRate is the probability a kernel launch transiently fails.
	LaunchFailRate float64

	// StallRate is the probability a launch is preceded by a stream
	// stall of StallSec seconds.
	StallRate float64
	StallSec  float64

	// ClockDropRate is the probability a launch triggers a DVFS/thermal
	// clock drop to ClockDropFrac of nominal; the clock then recovers
	// multiplicatively by ClockRecoverStep per subsequent launch (the
	// governor's ramp), mirroring gpusim's thermal model.
	ClockDropRate    float64
	ClockDropFrac    float64
	ClockRecoverStep float64

	// MemcpyRetryRate is the probability each H2D copy attempt fails;
	// attempts repeat up to MemcpyMaxRetries before the copy is declared
	// dead.
	MemcpyRetryRate  float64
	MemcpyMaxRetries int

	// AllocFailRate is the probability a per-request stream/workspace
	// allocation fails outright. Independently, if CapacityBytes > 0,
	// allocations that would push the in-use total past it fail
	// deterministically (the memory-pressure model: requests are keyed
	// off Engine.PerThreadMemBytes).
	AllocFailRate float64
	CapacityBytes float64

	// BitFlipRate is the per-layer probability of a corruption event in
	// the layer's weights or output activation; each event flips
	// FlipsPerEvent random bits (default 1).
	BitFlipRate   float64
	FlipsPerEvent int

	// Replica-scoped degradations (see ReplicaHavoc). InflateFactor > 1
	// slows every launch by that factor — sustained, not transient, so a
	// latency watchdog comparing against the replica's build expectation
	// can see it. StuckSymbol names a kernel symbol (substring match)
	// that stalls StuckStallSec on every invocation. SilentCorruptRate is
	// the per-layer probability an output activation is silently spiked —
	// no error, no latency signature, only disagreement with peers.
	InflateFactor     float64
	StuckSymbol       string
	StuckStallSec     float64
	SilentCorruptRate float64
}

// Scenario returns a plan in which every fault class fires at the given
// base rate, with representative severities: the single-knob sweep of
// the fault-tolerance study (benchtables -faulttol). Rate 0 is the
// pristine device.
func Scenario(seed string, rate float64) Plan {
	return Plan{
		Seed:             seed,
		LaunchFailRate:   rate,
		StallRate:        rate,
		StallSec:         2e-3,
		ClockDropRate:    rate,
		ClockDropFrac:    0.5,
		ClockRecoverStep: 1.03,
		MemcpyRetryRate:  rate,
		MemcpyMaxRetries: 3,
		AllocFailRate:    rate / 4,
		BitFlipRate:      rate / 2,
		FlipsPerEvent:    1,
	}
}

// ReplicaHavoc is the replica-scoped degradation scenario of the chaos
// study: a sustained 10x kernel-time inflation (a replica stuck in its
// minimum DVFS state), a stuck kernel (when stuckSymbol is non-empty),
// and silent output corruption — the three signatures a fleet
// supervisor must detect from outside, since none of them return
// errors. The inflation factor is chosen so the end-to-end latency
// ratio stays well above a watchdog threshold even on tiny proxy
// engines, where fixed launch overhead dominates and dilutes kernel-
// time inflation.
func ReplicaHavoc(seed, stuckSymbol string) Plan {
	return Plan{
		Seed:              seed,
		InflateFactor:     10,
		StuckSymbol:       stuckSymbol,
		StuckStallSec:     2e-3,
		SilentCorruptRate: 0.08,
	}
}

// Zero reports whether the plan injects nothing.
func (p Plan) Zero() bool {
	return p.LaunchFailRate == 0 && p.StallRate == 0 && p.ClockDropRate == 0 &&
		p.MemcpyRetryRate == 0 && p.AllocFailRate == 0 && p.CapacityBytes == 0 &&
		p.BitFlipRate == 0 && p.InflateFactor <= 1 && p.StuckSymbol == "" &&
		p.SilentCorruptRate == 0
}

// Counters tallies injected faults by kind. The zero value is ready to
// use; methods are not synchronized (Injector holds its own lock).
type Counters struct {
	counts [nKinds]uint64
}

// Add increments the counter for kind by n.
func (c *Counters) Add(k Kind, n uint64) { c.counts[k] += n }

// Get returns the count for kind.
func (c Counters) Get(k Kind) uint64 { return c.counts[k] }

// Total returns the sum over all kinds.
func (c Counters) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// String renders the non-zero counters.
func (c Counters) String() string {
	var parts []string
	for k := Kind(0); k < nKinds; k++ {
		if c.counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c.counts[k]))
		}
	}
	if len(parts) == 0 {
		return "no faults"
	}
	return strings.Join(parts, " ")
}

// Injector replays a Plan deterministically. It implements
// core.FaultInjector plus the Alloc/Free pair the serve package uses for
// memory-pressure admission. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu         sync.Mutex
	rng        *fixrand.Source
	clockScale float64 // current DVFS state: 1 = nominal
	inUseBytes float64
	counters   Counters
}

// New creates an injector for the plan; scenario disambiguates several
// injectors drawn from one plan (e.g. one per platform) so their fault
// streams are independent but individually reproducible.
func (p Plan) New(scenario string) *Injector {
	if p.ClockDropFrac <= 0 || p.ClockDropFrac > 1 {
		p.ClockDropFrac = 0.5
	}
	if p.ClockRecoverStep <= 1 {
		p.ClockRecoverStep = 1.03
	}
	if p.FlipsPerEvent < 1 {
		p.FlipsPerEvent = 1
	}
	if p.MemcpyMaxRetries < 0 {
		p.MemcpyMaxRetries = 0
	}
	return &Injector{
		plan:       p,
		rng:        fixrand.NewKeyed("faults/" + p.Seed + "/" + scenario),
		clockScale: 1,
	}
}

// Injector implements the runtime's hook surface.
var _ core.FaultInjector = (*Injector)(nil)

// Counters returns a snapshot of the fault tallies.
func (in *Injector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counters
}

// MemcpyH2D implements core.FaultInjector: each copy attempt fails with
// MemcpyRetryRate; after MemcpyMaxRetries failed attempts the copy is
// declared dead.
func (in *Injector) MemcpyH2D(bytes int64) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.MemcpyRetryRate <= 0 {
		return 0, nil
	}
	retries := 0
	for in.rng.Float64() < in.plan.MemcpyRetryRate {
		if retries >= in.plan.MemcpyMaxRetries {
			in.counters.Add(KindMemcpyFail, 1)
			return retries, fmt.Errorf("faults: H2D copy of %d bytes failed after %d retries", bytes, retries)
		}
		retries++
		in.counters.Add(KindMemcpyRetry, 1)
	}
	return retries, nil
}

// Launch implements core.FaultInjector: per-launch transient failures,
// stream stalls, and the DVFS clock state machine (drop on fault,
// multiplicative recovery ramp on every subsequent launch).
func (in *Injector) Launch(index int, symbol string) (lf core.LaunchFault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Recovery ramp first: the governor steps the clock back toward
	// nominal between launches.
	if in.clockScale < 1 {
		in.clockScale *= in.plan.ClockRecoverStep
		if in.clockScale > 1 {
			in.clockScale = 1
		}
	}
	if in.plan.ClockDropRate > 0 && in.rng.Float64() < in.plan.ClockDropRate {
		in.clockScale = in.plan.ClockDropFrac
		in.counters.Add(KindClockDrop, 1)
	}
	lf.ClockScale = in.clockScale
	// Sustained replica-scoped inflation rides on top of the DVFS state:
	// no random draw, so it never perturbs the transient-fault streams.
	if in.plan.InflateFactor > 1 {
		lf.ClockScale /= in.plan.InflateFactor
		in.counters.Add(KindLatencyInflate, 1)
	}
	if in.plan.StuckSymbol != "" && strings.Contains(symbol, in.plan.StuckSymbol) {
		lf.StallSec += in.plan.StuckStallSec
		in.counters.Add(KindStuckKernel, 1)
	}
	if in.plan.StallRate > 0 && in.rng.Float64() < in.plan.StallRate {
		lf.StallSec += in.plan.StallSec
		in.counters.Add(KindStreamStall, 1)
	}
	if in.plan.LaunchFailRate > 0 && in.rng.Float64() < in.plan.LaunchFailRate {
		lf.Fail = true
		in.counters.Add(KindLaunchFail, 1)
	}
	return lf
}

// CorruptWeights implements core.FaultInjector: with BitFlipRate it
// returns a copy of w with FlipsPerEvent random bits flipped; otherwise
// it returns w unchanged. The original tensor is never mutated.
func (in *Injector) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	if w == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.BitFlipRate <= 0 || in.rng.Float64() >= in.plan.BitFlipRate {
		return w
	}
	c := w.Clone()
	in.flipBits(c)
	return c
}

// silentSpike is the additive excursion of a silent-corruption event:
// large enough to move an argmax, invisible to every error path.
const silentSpike = 1e3

// CorruptActivation implements core.FaultInjector: with BitFlipRate it
// flips FlipsPerEvent random bits of y in place; with SilentCorruptRate
// it adds a large spike to one element. Each mechanism draws from the
// stream only when its rate is positive, so enabling one never shifts
// the other's draw sequence.
func (in *Injector) CorruptActivation(layer string, y *tensor.Tensor) {
	if y == nil || len(y.Data) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.BitFlipRate > 0 && in.rng.Float64() < in.plan.BitFlipRate {
		in.flipBits(y)
	}
	if in.plan.SilentCorruptRate > 0 && in.rng.Float64() < in.plan.SilentCorruptRate {
		y.Data[in.rng.Intn(len(y.Data))] += silentSpike
		in.counters.Add(KindSilentCorrupt, 1)
	}
}

// flipBits flips FlipsPerEvent random bits across the tensor. Bits 0-30
// (mantissa and exponent) are targeted; flipped exponent bits produce
// the large-magnitude excursions real SEU studies observe. Callers hold
// the lock.
func (in *Injector) flipBits(t *tensor.Tensor) {
	for i := 0; i < in.plan.FlipsPerEvent; i++ {
		idx := in.rng.Intn(len(t.Data))
		bit := uint(in.rng.Intn(31))
		t.Data[idx] = math.Float32frombits(math.Float32bits(t.Data[idx]) ^ (1 << bit))
	}
	in.counters.Add(KindBitFlip, 1)
}

// Alloc models reserving a request's per-thread memory footprint
// (Engine.PerThreadMemBytes): it fails under the plan's random
// allocation-failure rate, or deterministically when CapacityBytes is
// set and the reservation would exceed it. A successful Alloc must be
// paired with Free.
func (in *Injector) Alloc(bytes float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.CapacityBytes > 0 && in.inUseBytes+bytes > in.plan.CapacityBytes {
		in.counters.Add(KindAllocFail, 1)
		return fmt.Errorf("faults: allocation of %.0f bytes exceeds capacity (%.0f of %.0f in use)",
			bytes, in.inUseBytes, in.plan.CapacityBytes)
	}
	if in.plan.AllocFailRate > 0 && in.rng.Float64() < in.plan.AllocFailRate {
		in.counters.Add(KindAllocFail, 1)
		return fmt.Errorf("faults: allocation of %.0f bytes failed under memory pressure", bytes)
	}
	in.inUseBytes += bytes
	return nil
}

// Free releases a reservation made by Alloc.
func (in *Injector) Free(bytes float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.inUseBytes -= bytes
	if in.inUseBytes < 0 {
		in.inUseBytes = 0
	}
}
