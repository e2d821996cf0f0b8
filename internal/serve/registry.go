package serve

import (
	"fmt"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/wcet"
)

// Registry builds named engines on demand for one serving platform, with
// every build sharing a single timing cache. The first build of a layer
// shape pays the tactic-timing cost; later builds — other models with
// common shapes, or rebuilds after a process restart — take their
// measurements from the cache, so a fleet of servers converges on
// identical engines (warm rebuilds are canonical: build id 0, identical
// plan bytes). This is the serving-side half of the paper's §VI-A
// "build once" guidance: the registry is the "once".
type Registry struct {
	spec  gpusim.DeviceSpec
	dev   *gpusim.Device // spec at its paper latency clock: the serving device
	cache *core.TimingCache

	mu        sync.Mutex
	engines   map[string]*core.Engine
	fallbacks map[string]*graph.Graph
	nextBuild int
	stats     RegistryStats
	// proxyBuilds counts models.BuildProxy calls (≈ 9 ms each, the
	// build_zoo benchmark's core.build_proxy_ms_p50 on a 2-vCPU Xeon:
	// every class template goes through the reference extractor).
	proxyBuilds int
}

// RegistryStats aggregates the build reports of every engine the
// registry has produced.
type RegistryStats struct {
	ColdBuilds  int
	WarmBuilds  int
	CacheHits   int
	CacheMisses int
	TuneCostSec float64 // simulated tactic-timing cost paid so far
}

// NewRegistry creates a registry for one platform. A nil cache starts
// empty; passing a loaded cache (core.LoadTimingCacheFile) makes every
// first build warm.
func NewRegistry(spec gpusim.DeviceSpec, cache *core.TimingCache) *Registry {
	if cache == nil {
		cache = core.NewTimingCache()
	}
	return &Registry{
		spec:      spec,
		dev:       gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec)),
		cache:     cache,
		engines:   map[string]*core.Engine{},
		fallbacks: map[string]*graph.Graph{},
		nextBuild: 1,
	}
}

// TimingCache exposes the shared cache (for persisting across restarts).
func (r *Registry) TimingCache() *core.TimingCache { return r.cache }

// Stats returns the accumulated build statistics.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Engine returns the timing-only engine for a model, building it on
// first use.
func (r *Registry) Engine(model string) (*core.Engine, error) {
	return r.engine("full/"+model, model, false)
}

// ProxyEngine returns the numeric proxy engine for a model, building it
// on first use. Numeric engines serve both timed and numeric requests.
func (r *Registry) ProxyEngine(model string) (*core.Engine, error) {
	return r.engine("proxy/"+model, model, true)
}

// Rebuild discards the memoized engine and builds the model again. With
// the shapes already cached the rebuild is warm: no re-timing, canonical
// build id, plan bytes identical to any other warm rebuild.
func (r *Registry) Rebuild(model string) (*core.Engine, error) {
	r.mu.Lock()
	delete(r.engines, "proxy/"+model)
	r.mu.Unlock()
	return r.ProxyEngine(model)
}

// ReplicaEngines builds a fleet of k numeric proxy replicas of one
// model. Replica 0 is built against the shared timing cache — its cold
// build populates the cache, so every later Rebuild of the model is warm
// and canonical. Replicas 1..k-1 are built cold with distinct build ids
// and no cache, so tuner measurement noise makes them genuinely diverge
// (paper Findings 2 and 6): same model, same platform, different tactic
// choices — the per-replica disagreement a quorum dispatcher votes away.
// Replica fleets are not memoized; each call builds fresh engines.
func (r *Registry) ReplicaEngines(model string, k int) ([]*core.Engine, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: replica fleet of %s needs k >= 1, got %d", model, k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, err := r.proxyGraph(model, false)
	if err != nil {
		return nil, fmt.Errorf("serve: registry replica model %s: %w", model, err)
	}
	fleet := make([]*core.Engine, 0, k)
	for slot := 0; slot < k; slot++ {
		e, err := r.build(g, slot == 0)
		if err != nil {
			return nil, fmt.Errorf("serve: registry replica %d of %s: %w", slot, model, err)
		}
		fleet = append(fleet, e)
	}
	return fleet, nil
}

// build is the registry's one engine build; r.mu is held. It takes the
// next build id, and a shared build tunes against the registry's timing
// cache with a canonical warm id (a warm rebuild reproduces it exactly).
// The build report folds into RegistryStats; a failed build consumes no
// id.
func (r *Registry) build(g *graph.Graph, shared bool) (*core.Engine, error) {
	cfg := core.DefaultConfig(r.spec, r.nextBuild)
	if shared {
		cfg.TimingCache = r.cache
		cfg.CanonicalWarmID = true
	}
	e, err := core.Build(g, cfg)
	if err != nil {
		return nil, err
	}
	r.nextBuild++
	if rep := e.Report; rep != nil {
		if rep.WarmBuild {
			r.stats.WarmBuilds++
		} else {
			r.stats.ColdBuilds++
		}
		r.stats.CacheHits += rep.CacheHits
		r.stats.CacheMisses += rep.CacheMisses
		r.stats.TuneCostSec += rep.TuneCostSec
	}
	return e, nil
}

func (r *Registry) engine(key, model string, proxy bool) (*core.Engine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.engines[key]; ok {
		return e, nil
	}
	var g *graph.Graph
	var err error
	if proxy {
		g, err = r.proxyGraph(model, false)
	} else {
		g, err = models.Build(model)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: registry model %s: %w", model, err)
	}
	e, err := r.build(g, true)
	if err != nil {
		return nil, fmt.Errorf("serve: registry build %s: %w", model, err)
	}
	r.engines[key] = e
	return e, nil
}

// WCETBound measures the model's numeric proxy engine on the registry
// platform (at its paper latency clock) and returns the certified
// worst-case-execution-time bound: the empirical maximum of runs
// samples inflated by margin (wcet.Profile.WCETSec). The serving
// front-end's admission control sheds any request whose budget cannot
// be met under this bound.
func (r *Registry) WCETBound(model string, runs int, margin float64) (float64, error) {
	e, err := r.ProxyEngine(model)
	if err != nil {
		return 0, err
	}
	return wcet.Measure(e, r.dev, runs).WCETSec(margin), nil
}

// Fallback returns the pristine (un-built) numeric proxy graph for the
// FP32 reference tier, memoized per model.
func (r *Registry) Fallback(model string) (*graph.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, err := r.proxyGraph(model, true)
	if err != nil {
		return nil, fmt.Errorf("serve: registry fallback %s: %w", model, err)
	}
	return g, nil
}

// proxyGraph returns the model's pristine proxy graph; r.mu is held. The
// fallback tier memoizes it (keep), and an engine build borrows that
// graph when it is there — core.Build clones its input — so a served
// model's Rebuild costs the sub-millisecond warm build alone. A build
// with no fallback to borrow makes a graph and lets it go: a registry
// that only builds engines retains none.
func (r *Registry) proxyGraph(model string, keep bool) (*graph.Graph, error) {
	if g, ok := r.fallbacks[model]; ok {
		return g, nil
	}
	g, err := models.BuildProxy(model, models.DefaultProxyOptions())
	if err != nil {
		return nil, err
	}
	r.proxyBuilds++
	if keep {
		r.fallbacks[model] = g
	}
	return g, nil
}
