package serve

import (
	"bytes"
	"reflect"
	"testing"

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

func TestRegistryExecutorServes(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	ex, err := r.Executor("vgg16", Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.DoCtx(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierTuned || res.LatencySec <= 0 {
		t.Fatalf("pristine registry executor served %+v", res)
	}
	// A numeric request through the shared proxy engine.
	e, _ := r.ProxyEngine("vgg16")
	shape := e.Graph.InputShape
	x := tensor.New(shape[0], shape[1], shape[2], shape[3])
	nres, err := ex.DoCtx(nil, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Outputs) == 0 {
		t.Fatal("numeric request returned no outputs")
	}
	// Both executors for one model share the registry's single build.
	if _, err := r.Executor("vgg16", Config{}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ColdBuilds != 1 {
		t.Fatalf("second executor rebuilt the engine: %+v", st)
	}
}

func TestRegistryUnknownModel(t *testing.T) {
	r := NewRegistry(gpusim.XavierNX(), nil)
	if _, err := r.ProxyEngine("no-such-model"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := r.Executor("no-such-model", Config{}); err == nil {
		t.Fatal("executor for unknown model accepted")
	}
}
