// The executor adapter: the names the benchmark harness under bench/
// still compiles against, each a thin view of a Pool of one. bench/
// only; deleted once the harness serves through NewPool and
// netserve.NewPoolBackend.

package serve

import "edgeinfer/internal/core"

// Tier indexes Stats.TierServed. bench/ only.
type Tier int

const (
	// TierTuned counts images the replica answered.
	TierTuned Tier = iota
	// TierLowBatch is never served: a Pool of one has no standby.
	TierLowBatch
	// TierFP32 counts images the FP32 reference answered.
	TierFP32

	numTiers
)

// Config parameterizes Registry.Executor. bench/ only.
type Config struct {
	// Injector is the fault plan the pool's one replica runs under (nil =
	// pristine).
	Injector core.FaultInjector
	// Seed is a no-op: a Pool of one has no backoff jitter to key. It
	// remains only because the benchmark harness still sets it.
	Seed string
}

// Stats are a Pool of one's counters in the executor's shape. bench/
// only.
type Stats struct {
	// TierServed counts answered images: PoolStats.QuorumServed under
	// TierTuned, PoolStats.FP32Served under TierFP32.
	TierServed [numTiers]uint64
	// Retries is PoolStats.ReplicaFails.
	Retries uint64
	// BreakerTrips is PoolStats.Quarantines.
	BreakerTrips uint64
}

// Executor is a Pool of one: the same value, viewed through the
// executor's Stats (netserve.NewExecutorBackend serves it as the Pool it
// is). bench/ only.
type Executor Pool

// Stats returns the pool's counters in the executor's shape.
func (ex *Executor) Stats() Stats {
	ps := (*Pool)(ex).Stats()
	var s Stats
	s.TierServed[TierTuned] = ps.QuorumServed
	s.TierServed[TierFP32] = ps.FP32Served
	s.Retries = ps.ReplicaFails
	s.BreakerTrips = ps.Quarantines
	return s
}

// Executor builds a Pool of one for a model, its replica running under
// cfg.Injector. bench/ only.
func (r *Registry) Executor(model string, cfg Config) (*Executor, error) {
	pc := PoolConfig{Model: model, Replicas: 1}
	if cfg.Injector != nil {
		pc.ReplicaInjector = func(int, *core.Engine) core.FaultInjector { return cfg.Injector }
	}
	p, err := NewPool(r, pc)
	if err != nil {
		return nil, err
	}
	return (*Executor)(p), nil
}
