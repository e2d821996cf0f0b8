// Self-healing replica fleet. The paper's Findings 2 and 6 establish
// that independently built engines of the same model genuinely diverge —
// different tactic choices, different rounding, occasionally different
// argmaxes. A Pool turns that liability into a fault detector: K
// replicas with distinct build ids serve together, a quorum dispatcher
// votes on their argmaxes, and the pool watches two health signals per
// replica — a latency watchdog (observed run latency vs the replica's
// own build-time plan expectation, EWMA-smoothed) and a divergence
// score (EWMA of quorum disagreements). Their verdicts drive each
// replica through the supervisor's lattice (supervisor.go):
// quarantined replicas leave the dispatch set (traffic drains to the
// remaining replicas, or to the FP32 reference tier when none remain),
// are rebuilt in the background through the registry's shared timing
// cache — a warm, canonical rebuild, the §VI-A "build once" mechanism —
// re-validated against the FP32 reference on a canary set, and
// readmitted. Every transition is one line of a transcript that is
// byte-identical across same-seed runs.
package serve

import (
	"fmt"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/tensor"
)

// The fleet's health policy. The latency watchdog trips at
// LatencyThreshold (supervisor.go), and a suspect is confirmed by its
// next anomalous observation.
const (
	// divergenceThreshold is the quorum-disagreement EWMA trip point:
	// diverged builds legitimately disagree on a few percent of inputs,
	// corrupted replicas on most.
	divergenceThreshold = 0.45
	// ewmaAlpha is the smoothing weight of both signals.
	ewmaAlpha = 0.3
	// minSamples gates both signals: no verdict before this many
	// observations of a replica.
	minSamples = 3
	// rebuildDelay is how many requests a replica sits quarantined
	// before its background rebuild lands (the deterministic model of
	// rebuild time).
	rebuildDelay = 4
	// canaryAgreeFrac is the share of the canary set on which a rebuilt
	// replica's argmax must match the FP32 reference: a canonical engine
	// legitimately disagrees with FP32 on some inputs, per the paper's
	// Tables V and VI.
	canaryAgreeFrac = 0.5
)

// PoolConfig parameterizes a replica fleet. Model is required;
// everything else is optional.
type PoolConfig struct {
	// Model names the served model (a models.Build/BuildProxy name).
	Model string
	// Replicas is the fleet size K (default 3). Replica 0 populates the
	// registry's shared timing cache; the rest build cold and diverge.
	Replicas int
	// Quorum is a no-op: every fleet dispatches hedged and votes on
	// argmax by majority. It remains only because the benchmark harness
	// still sets it, and goes once that harness stops.
	Quorum bool
	// ReplicaInjector, when non-nil, is consulted per replica — at fleet
	// construction and again after every rebuild — so faults can target
	// one build id and heal when the rebuild lands. Nil return means the
	// replica runs pristine.
	ReplicaInjector func(slot int, e *core.Engine) core.FaultInjector
	// Canary is the validation set a rebuilt replica must pass before
	// readmission (see canaryAgreeFrac). An empty canary set skips
	// validation.
	Canary []*tensor.Tensor
}

// replica is one fleet member and its signal state; its place on the
// health lattice is the Pool's supervisor's, at index slot.
type replica struct {
	slot     int
	eng      *core.Engine
	inj      core.FaultInjector
	expected float64 // watchdog baseline on the serving device

	latEWMA float64 // EWMA of observed/expected latency ratio
	divEWMA float64 // EWMA of quorum disagreement (0/1 per vote)
	samples int

	quarantinedAt uint64
	quarantines   int
	rebuilds      int
	readmits      int
}

// isActive reports whether r is in the dispatch set.
func (p *Pool) isActive(r *replica) bool {
	switch p.sup.State(r.slot) {
	case StateHealthy, StateSuspect, StateReadmitted:
		return true
	}
	return false
}

// noteDivergence folds one quorum vote into a replica's divergence EWMA.
func (p *Pool) noteDivergence(r *replica, disagreed bool) {
	d := 0.0
	if disagreed {
		d = 1
	}
	r.divEWMA = ewmaAlpha*d + (1-ewmaAlpha)*r.divEWMA
}

// observe folds one served request into a replica's signals and hands
// the verdict to the supervisor, counting what it detected or
// quarantined. errored marks a request the replica failed outright (a
// strike without an EWMA update — the partial latency of a failed run
// says nothing about the replica's speed). Callers hold p.mu.
func (p *Pool) observe(req uint64, r *replica, latSec float64, errored bool) {
	anomalous := errored
	signal := "error"
	if !errored {
		if r.expected > 0 && latSec > 0 {
			ratio := latSec / r.expected
			r.latEWMA = ewmaAlpha*ratio + (1-ewmaAlpha)*r.latEWMA
		}
		r.samples++
		if r.samples >= minSamples && r.latEWMA > LatencyThreshold {
			anomalous = true
			signal = fmt.Sprintf("lat-ewma=%.3f", r.latEWMA)
		}
		if r.samples >= minSamples && r.divEWMA > divergenceThreshold {
			anomalous = true
			signal = fmt.Sprintf("div-ewma=%.3f", r.divEWMA)
		}
	}
	detected, quarantined := p.sup.Observe(req, r.slot, anomalous, signal)
	if detected {
		p.stats.Detections++
	}
	if quarantined {
		r.quarantinedAt = req
		r.quarantines++
		p.stats.Quarantines++
	}
}

// PoolStats are the fleet's cumulative counters. Each counts in one of
// four units: batches (one DoBatchCtx call, whatever its size), images
// (one input of a batch), replica attempts (one active replica's run
// over one batch) or supervisor events. A batch of n images that is
// answered adds 1 to Requests and n to QuorumServed + FP32Served.
type PoolStats struct {
	Requests     uint64 // batches dispatched, answered or not
	QuorumServed uint64 // images served by a quorum majority
	NoMajority   uint64 // images with an active replica but no strict-majority answer
	FP32Served   uint64 // images served by the FP32 reference tier
	ReplicaFails uint64 // replica attempts that errored outright

	Detections     uint64 // healthy/readmitted → suspect transitions
	Quarantines    uint64 // suspect → quarantined transitions
	Rebuilds       uint64 // background rebuilds completed
	CanaryFailures uint64 // rebuilds rejected by canary validation
	Readmissions   uint64 // rebuilding → readmitted transitions

	// DeadlineAborts counts batches abandoned before the FP32 tier under
	// an aborting context: every replica stopped by its layer guard, or
	// none answered and the slowest gave up past the budget.
	DeadlineAborts uint64
	// DeadlineMisses counts answered batches whose release time (their
	// slowest image's) overran the request context's budget — the
	// fleet's own miss verdict.
	DeadlineMisses uint64
}

// PoolResult is one request served by the fleet.
type PoolResult struct {
	// Outputs are the winning replica's outputs (or the FP32
	// reference's).
	Outputs []*tensor.Tensor
	// LatencySec is the request's modeled latency: the
	// majority-confirmation time, or, when the FP32 tier served, the
	// moment the hedge failed plus the reference pass.
	LatencySec float64
	// Replica is the serving slot (-1 when the FP32 tier served).
	Replica int
	// BuildID of the serving replica's engine (-1 for FP32).
	BuildID int
	// Voters is how many replicas answered the request.
	Voters int
	// Majority is the size of the agreeing majority (0 = none).
	Majority int
	// Fallback reports the FP32 reference tier served the request.
	Fallback bool
}

// ReplicaHealth is one replica's view in the fleet health report.
type ReplicaHealth struct {
	Slot           int
	BuildID        int
	State          string
	LatencyEWMA    float64
	DivergenceEWMA float64
	Samples        int
	Quarantines    int
	Rebuilds       int
	Readmissions   int
}

// PoolHealth is the fleet's heartbeat view.
type PoolHealth struct {
	Model    string
	Active   int // replicas currently in the dispatch set
	Replicas []ReplicaHealth
}

// Pool is a self-healing fleet of engine replicas serving one model.
// Safe for concurrent use. Requests serialize on a single-token turn
// channel so the supervisor's transcript stays deterministic; the state
// mutex guards only short read/write sections and is never held across
// an inference (the lockorder analyzer enforces this), so Health, Stats
// and Transcript answer immediately even while a request is in flight.
type Pool struct {
	cfg PoolConfig
	reg *Registry // also owns the serving device, reg.dev
	ref reference // the FP32 tier, over the pristine fallback graph

	// turn is the request ticket: exactly one token exists, and a request
	// holds it end to end. The holder is the only goroutine mutating pool
	// state, which is what lets the serving path read that state without
	// the mutex between its locked sections.
	turn chan struct{}

	mu    sync.Mutex // guards reps/sup/stats; never held across inference
	reps  []*replica
	sup   *supervisor
	stats PoolStats
}

// locked runs one short state mutation under the mutex.
func (p *Pool) locked(f func()) {
	p.mu.Lock()
	f()
	p.mu.Unlock()
}

// NewPool builds a replica fleet from the registry: K numeric proxy
// replicas (replica 0 warms the shared timing cache, the rest diverge)
// plus the pristine FP32 fallback graph.
func NewPool(reg *Registry, cfg PoolConfig) (*Pool, error) {
	if cfg.Model == "" {
		return nil, fmt.Errorf("serve: pool config needs a model")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	fb, err := reg.Fallback(cfg.Model) // first: the replica builds borrow its graph
	if err != nil {
		return nil, err
	}
	engines, err := reg.ReplicaEngines(cfg.Model, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:  cfg,
		reg:  reg,
		ref:  reference{g: fb, sec: core.UnoptimizedRun(fb, reg.dev)},
		turn: make(chan struct{}, 1),
	}
	for slot, e := range engines {
		r := &replica{
			slot:     slot,
			eng:      e,
			expected: e.ExpectedLatencySec(p.reg.dev, false),
			latEWMA:  1,
		}
		if cfg.ReplicaInjector != nil {
			r.inj = cfg.ReplicaInjector(slot, e)
		}
		p.reps = append(p.reps, r)
	}
	p.sup = newSupervisor(len(p.reps), func(m int) string {
		return fmt.Sprintf("replica %d (build %d)", m, p.reps[m].eng.BuildID)
	})
	p.turn <- struct{}{}
	return p, nil
}

// Stats returns a snapshot of the fleet counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Health returns the fleet's heartbeat view.
func (p *Pool) Health() PoolHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := PoolHealth{Model: p.cfg.Model}
	for _, r := range p.reps {
		if p.isActive(r) {
			h.Active++
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{
			Slot:           r.slot,
			BuildID:        r.eng.BuildID,
			State:          p.sup.State(r.slot).String(),
			LatencyEWMA:    r.latEWMA,
			DivergenceEWMA: r.divEWMA,
			Samples:        r.samples,
			Quarantines:    r.quarantines,
			Rebuilds:       r.rebuilds,
			Readmissions:   r.readmits,
		})
	}
	return h
}

// Engines returns the current replica engines in slot order. Engines
// are immutable; experiments use this to compare served outputs against
// a replica's pristine Infer.
func (p *Pool) Engines() []*core.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*core.Engine, len(p.reps))
	for i, r := range p.reps {
		out[i] = r.eng
	}
	return out
}

// Transcript returns a copy of the supervisor's transition log: one line
// per state change, byte-identical across same-seed runs.
func (p *Pool) Transcript() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sup.Transcript()
}

// advanceRebuilds is the deterministic model of background healing: a
// quarantined replica's rebuild lands rebuildDelay requests after the
// quarantine. The rebuild goes through the registry — warm against the
// shared timing cache, so the replacement engine is canonical (build id
// 0, identical plan bytes) — then must pass canary validation against
// the FP32 reference before readmission.
func (p *Pool) advanceRebuilds(req uint64) {
	for _, r := range p.reps {
		if p.sup.State(r.slot) != StateQuarantined || req < r.quarantinedAt+rebuildDelay {
			continue
		}
		p.locked(func() {
			p.sup.Move(req, r.slot, StateRebuilding, fmt.Sprintf("rebuild after %d quarantined requests", rebuildDelay))
		})
		// The build and the canary inferences run outside the state lock:
		// both are long and both would otherwise hold p.mu across kernel
		// execution. The turn token keeps them exclusive with other
		// requests regardless.
		e, err := p.reg.Rebuild(p.cfg.Model)
		if err != nil {
			p.locked(func() {
				p.sup.Move(req, r.slot, StateQuarantined, "rebuild failed: "+err.Error())
				r.quarantinedAt = req
			})
			continue
		}
		var inj core.FaultInjector
		if p.cfg.ReplicaInjector != nil {
			inj = p.cfg.ReplicaInjector(r.slot, e)
		}
		expected := e.ExpectedLatencySec(p.reg.dev, false)
		p.locked(func() {
			r.eng, r.inj, r.expected = e, inj, expected
			r.rebuilds++
			p.stats.Rebuilds++
		})
		agree, total := p.canary(r)
		if total > 0 && float64(agree) < canaryAgreeFrac*float64(total) {
			p.locked(func() {
				p.stats.CanaryFailures++
				p.sup.Move(req, r.slot, StateQuarantined, fmt.Sprintf("canary %d/%d below threshold", agree, total))
				r.quarantinedAt = req
			})
			continue
		}
		p.locked(func() {
			r.latEWMA, r.divEWMA = 1, 0
			r.samples = 0
			r.readmits++
			p.stats.Readmissions++
			p.sup.Move(req, r.slot, StateReadmitted, fmt.Sprintf("canary %d/%d", agree, total))
		})
	}
}

// canary validates a rebuilt replica exactly as it will serve (its own
// injector included) against the FP32 reference.
func (p *Pool) canary(r *replica) (agree, total int) {
	for _, x := range p.cfg.Canary {
		want, err := p.ref.infer(x)
		if err != nil || len(want) == 0 {
			continue // reference path broken for this input: not the replica's fault
		}
		total++
		outs, err := r.eng.InferBatchCtx(nil, []*tensor.Tensor{x}, r.inj, nil, 0)
		if err != nil || len(outs[0]) == 0 {
			continue
		}
		if outs[0][0].Argmax() == want[0].Argmax() {
			agree++
		}
	}
	return agree, total
}
