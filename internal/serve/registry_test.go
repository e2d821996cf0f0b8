package serve

import (
	"bytes"
	"reflect"
	"testing"

	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/tensor"
)

func TestRegistryMemoizesAndSharesCache(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	e1, err := r.ProxyEngine("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.ProxyEngine("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("second lookup rebuilt the engine")
	}
	st := r.Stats()
	if st.ColdBuilds != 1 || st.WarmBuilds != 0 {
		t.Fatalf("stats after one build: %+v", st)
	}
	if st.CacheMisses == 0 || st.TuneCostSec <= 0 {
		t.Fatalf("cold build paid no tuning cost: %+v", st)
	}
	if r.TimingCache().Len() == 0 {
		t.Fatal("shared cache not populated")
	}
	// A second model reuses cached shapes where they overlap (the
	// downscaled proxies share conv shapes, so this build may even be
	// fully warm).
	if _, err := r.ProxyEngine("resnet18"); err != nil {
		t.Fatal(err)
	}
	got := r.Stats()
	if got.ColdBuilds+got.WarmBuilds != 2 {
		t.Fatalf("stats after two models: %+v", got)
	}
	if got.CacheHits <= st.CacheHits {
		t.Fatalf("second model hit no shared entries: %+v", got)
	}
}

func TestRegistryRebuildIsWarmAndCanonical(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	cold, err := r.ProxyEngine("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := r.Rebuild("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := r.Rebuild("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	if !w1.Report.WarmBuild || !w2.Report.WarmBuild {
		t.Fatalf("rebuilds not warm: %+v / %+v", w1.Report, w2.Report)
	}
	if w1.BuildID != 0 || w2.BuildID != 0 {
		t.Fatalf("warm rebuilds not canonical: ids %d, %d", w1.BuildID, w2.BuildID)
	}
	if !reflect.DeepEqual(cold.Choices, w1.Choices) {
		t.Fatal("warm rebuild diverged from the cold build's tactics")
	}
	var b1, b2 bytes.Buffer
	if err := w1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := w2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("warm rebuilds are not byte-identical")
	}
	st := r.Stats()
	if st.ColdBuilds != 1 || st.WarmBuilds != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// A served model's proxy graph — 100 class templates through the
// reference extractor — is built once: the fallback tier memoizes it and
// every engine build of the model borrows it (core.Build clones its
// input), so Rebuild, which a Pool calls under its dispatch turn, costs
// the warm core.Build alone. A registry that only builds engines has no
// fallback to borrow, makes a graph per build and retains none — the
// path whose plan bytes the borrowed build must reproduce.
func TestRegistryBuildsProxyGraphOnce(t *testing.T) {
	const model = "resnet18"
	proxyBuilds := func(r *Registry) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.proxyBuilds
	}
	plan := func(r *Registry) []byte {
		e, err := r.Rebuild(model)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := e.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	bare := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := bare.ProxyEngine(model); err != nil {
		t.Fatal(err)
	}
	want := plan(bare)
	if got := proxyBuilds(bare); got != 2 || len(bare.fallbacks) != 0 {
		t.Fatalf("engine-only registry: %d proxy graphs built (want one per build, 2), %d retained (want 0)", got, len(bare.fallbacks))
	}

	r := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := NewPool(r, PoolConfig{Model: model, Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	if got := proxyBuilds(r); got != 1 {
		t.Fatalf("registry-built Pool of one built %d proxy graphs, want 1", got)
	}
	fb, err := r.Fallback(model)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	in, err := r.proxyGraph(model, false)
	r.mu.Unlock()
	if err != nil || in != fb {
		t.Fatalf("engine builds start from %p (err %v), want the memoized fallback %p", in, err, fb)
	}
	if got := plan(r); !bytes.Equal(got, want) {
		t.Fatal("Rebuild from the borrowed fallback graph differs from a rebuild from a fresh proxy graph")
	}
	if got := proxyBuilds(r); got != 1 {
		t.Fatalf("Rebuild of a served model built a proxy graph (%d total, want 1)", got)
	}

	pr := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := NewPool(pr, PoolConfig{Model: model, Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	if got := proxyBuilds(pr); got != 1 {
		t.Fatalf("registry-built 3-replica Pool built %d proxy graphs, want 1", got)
	}
	if got := plan(pr); !bytes.Equal(got, want) {
		t.Fatal("a Pool's Rebuild differs from a rebuild from a fresh proxy graph")
	}
	if got := proxyBuilds(pr); got != 1 {
		t.Fatalf("a Pool's Rebuild built a proxy graph (%d total, want 1)", got)
	}
}

func TestRegistryPreloadedCacheMakesFirstBuildWarm(t *testing.T) {
	seed := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := seed.ProxyEngine("resnet18"); err != nil {
		t.Fatal(err)
	}
	// A second registry (a fresh process) starting from the persisted
	// cache never pays the timing cost.
	r := NewRegistry(gpusim.XavierNX(), seed.TimingCache())
	e, err := r.ProxyEngine("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Report.WarmBuild || e.Report.TuneCostSec != 0 {
		t.Fatalf("first build against preloaded cache not warm: %+v", e.Report)
	}
}

// The executor adapter the benchmark harness compiles against: a Pool of
// one whose Stats map PoolStats onto the executor's tiers.
func TestRegistryExecutorServes(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	ex, err := r.Executor("vgg16", Config{Seed: "ignored"})
	if err != nil {
		t.Fatal(err)
	}
	p := (*Pool)(ex)
	if n := len(p.Engines()); n != 1 {
		t.Fatalf("executor has %d replicas, want 1", n)
	}
	shape := p.Engines()[0].Graph.InputShape
	x := tensor.New(shape[0], shape[1], shape[2], shape[3])
	br, err := p.DoBatchCtx(nil, []*tensor.Tensor{x, x}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if br.LatencySec <= 0 || len(br.Results) != 2 || len(br.Results[0].Outputs) == 0 {
		t.Fatalf("pristine registry executor served %+v", br)
	}
	if got, want := ex.Stats(), (Stats{TierServed: [numTiers]uint64{TierTuned: 2}}); got != want {
		t.Fatalf("pristine executor stats %+v, want %+v", got, want)
	}
	// A second executor builds warm from the shared timing cache.
	if _, err := r.Executor("vgg16", Config{}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ColdBuilds != 1 {
		t.Fatalf("second executor built cold: %+v", st)
	}

	// Under total faults the replica fails and the FP32 tier answers.
	failing, err := r.Executor("vgg16", Config{Injector: faults.Plan{Seed: "adapter", LaunchFailRate: 1}.New("nx")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (*Pool)(failing).DoBatchCtx(nil, []*tensor.Tensor{x}, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := failing.Stats(), (Stats{TierServed: [numTiers]uint64{TierFP32: 1}, Retries: 1}); got != want {
		t.Fatalf("failing executor stats %+v, want %+v", got, want)
	}
}

func TestRegistryUnknownModel(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := r.ProxyEngine("no-such-model"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewPool(r, PoolConfig{Model: "no-such-model", Replicas: 1}); err == nil {
		t.Fatal("pool for unknown model accepted")
	}
}
