// Network-layer chaos for the serving front-end. The device-side Plan
// models a hostile accelerator; NetPlan models hostile clients and
// traffic: request bodies that dribble in a few bytes at a time, clients
// that vanish after the server has admitted their work, and open-loop
// arrival bursts several times the nominal rate. These are the failure
// modes that only exist once requests arrive over a wire — a coalescing
// queue that is correct under them (every admitted request answered or
// explicitly shed, no batcher wedged behind a dead client) is the
// robustness property internal/netserve's chaos tests pin down.
//
// Like the device Injector, a NetInjector replays its plan from a
// fixrand stream, so every chaos scenario is exactly reproducible.
package faults

import (
	"fmt"
	"io"
	"sync"
	"time"

	"edgeinfer/internal/fixrand"
)

// NetPlan is a declarative network-chaos scenario. Rates are
// per-request probabilities in [0, 1]; a zero plan injects nothing.
type NetPlan struct {
	// Seed names the scenario; with the per-injector scenario key it
	// selects the fixrand stream.
	Seed string

	// SlowClientRate is the probability a request's body is dribbled:
	// written in SlowChunkBytes chunks with SlowChunkDelay between them
	// (defaults 64 bytes / 1ms).
	SlowClientRate float64
	SlowChunkBytes int
	SlowChunkDelay time.Duration

	// DisconnectRate is the probability a client abandons its request
	// mid-flight — after admission, before reading the response.
	DisconnectRate float64

	// BurstEvery fires an arrival burst every BurstEvery-th tick of an
	// open-loop generator: BurstFactor requests land where one would
	// (default factor 4). Zero disables bursts.
	BurstEvery  int
	BurstFactor int
}

// Zero reports whether the plan injects nothing.
func (p NetPlan) Zero() bool {
	return p.SlowClientRate == 0 && p.DisconnectRate == 0 && p.BurstEvery == 0
}

// NetInjector replays a NetPlan deterministically. Safe for concurrent
// use.
type NetInjector struct {
	plan NetPlan

	mu       sync.Mutex
	rng      *fixrand.Source
	counters Counters
}

// NewNet creates an injector for the plan; scenario disambiguates
// several injectors drawn from one plan so their verdict streams are
// independent but individually reproducible.
func (p NetPlan) NewNet(scenario string) *NetInjector {
	if p.SlowChunkBytes <= 0 {
		p.SlowChunkBytes = 64
	}
	if p.SlowChunkDelay <= 0 {
		p.SlowChunkDelay = time.Millisecond
	}
	if p.BurstFactor < 2 {
		p.BurstFactor = 4
	}
	if p.BurstEvery < 0 {
		p.BurstEvery = 0
	}
	return &NetInjector{
		plan: p,
		rng:  fixrand.NewKeyed("faults/net/" + p.Seed + "/" + scenario),
	}
}

// Counters returns a snapshot of the fault tallies.
func (in *NetInjector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counters
}

// SlowClient draws one request's slow-read verdict. When it fires, the
// caller should wrap the request body with Throttle(body, chunk, delay).
func (in *NetInjector) SlowClient() (chunk int, delay time.Duration, slow bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.SlowClientRate <= 0 || in.rng.Float64() >= in.plan.SlowClientRate {
		return 0, 0, false
	}
	in.counters.Add(KindSlowClient, 1)
	return in.plan.SlowChunkBytes, in.plan.SlowChunkDelay, true
}

// Disconnect draws one request's mid-flight disconnect verdict. When it
// fires, the caller should cancel the request's context after admission
// and never read the response.
func (in *NetInjector) Disconnect() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.DisconnectRate <= 0 || in.rng.Float64() >= in.plan.DisconnectRate {
		return false
	}
	in.counters.Add(KindClientGone, 1)
	return true
}

// Burst returns how many requests an open-loop generator should launch
// at tick (1-based position in the arrival schedule): 1 normally,
// BurstFactor on burst ticks. Deterministic — no stream draw — so
// enabling bursts never shifts the slow/disconnect verdict sequence.
func (in *NetInjector) Burst(tick int) int {
	if in.plan.BurstEvery <= 0 || tick <= 0 || tick%in.plan.BurstEvery != 0 {
		return 1
	}
	in.mu.Lock()
	in.counters.Add(KindBurst, 1)
	in.mu.Unlock()
	return in.plan.BurstFactor
}

// Throttle wraps a reader so each Read returns at most chunk bytes after
// sleeping delay: the slow-client body. The wrapped reader never errors
// on its own; it only paces the underlying stream.
func Throttle(r io.Reader, chunk int, delay time.Duration) io.Reader {
	if chunk <= 0 {
		chunk = 1
	}
	return &throttledReader{r: r, chunk: chunk, delay: delay}
}

type throttledReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

// Read implements io.Reader.
func (t *throttledReader) Read(p []byte) (int, error) {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("faults: throttled read: %w", err)
	}
	return n, err
}
