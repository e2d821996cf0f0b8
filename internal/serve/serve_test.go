package serve_test

import (
	"sync"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

var (
	fixtureOnce sync.Once
	fixEngine   *core.Engine
	fixGraph    *graph.Graph
	fixDevice   *gpusim.Device
	fixInputs   []*tensor.Tensor
)

// fixture builds one numeric proxy engine (resnet18 on NX) shared by all
// tests; engines are immutable, so sharing is safe.
func fixture(t *testing.T) (*core.Engine, *graph.Graph, *gpusim.Device, []*tensor.Tensor) {
	t.Helper()
	fixtureOnce.Do(func() {
		g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
		if err != nil {
			panic(err)
		}
		spec := gpusim.XavierNX()
		e, err := core.Build(g, core.DefaultConfig(spec, 1))
		if err != nil {
			panic(err)
		}
		fixEngine, fixGraph = e, g
		fixDevice = gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
		for _, s := range dataset.Benign(dataset.DefaultBenign(1))[:16] {
			fixInputs = append(fixInputs, s.Image)
		}
	})
	return fixEngine, fixGraph, fixDevice, fixInputs
}

func newExec(t *testing.T, inj core.FaultInjector, mut func(*serve.Config)) *serve.Executor {
	t.Helper()
	eng, g, dev, _ := fixture(t)
	cfg := serve.Config{Engine: eng, Fallback: g, Device: dev, Injector: inj, Seed: "test"}
	if mut != nil {
		mut(&cfg)
	}
	ex, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func sameOutputs(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// At fault rate zero the executor must be bit-identical to calling
// Engine.Run and Engine.Infer directly (issue acceptance criterion).
func TestZeroRateBitIdentical(t *testing.T) {
	eng, _, dev, inputs := fixture(t)
	for _, inj := range []core.FaultInjector{nil, faults.Scenario("zr", 0).New("nx")} {
		ex := newExec(t, inj, nil)
		for run := 0; run < 3; run++ {
			x := inputs[run]
			got, err := ex.DoBatchCtx(nil, inputs[run:run+1], run)
			if err != nil {
				t.Fatal(err)
			}
			direct := eng.Run(core.RunConfig{Device: dev, RunIndex: run})
			if got.LatencySec != direct.LatencySec {
				t.Fatalf("latency %v != direct %v (injector=%v)", got.LatencySec, direct.LatencySec, inj != nil)
			}
			want, err := eng.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(got.Outputs[0], want) {
				t.Fatalf("outputs differ from direct Infer (injector=%v)", inj != nil)
			}
			if got.Tier != serve.TierTuned || got.Degraded || got.Retries != 0 {
				t.Fatalf("pristine request degraded: %+v", got)
			}
		}
		if got, want := ex.Stats(), (serve.Stats{Requests: 3, TierServed: [3]uint64{serve.TierTuned: 3}}); got != want {
			t.Fatalf("pristine stats %+v, want %+v (injector=%v)", got, want, inj != nil)
		}
	}
}

// Property: under a 100%-fault plan every request is still answered, via
// the FP32 reference tier, with outputs identical to graph.Execute —
// never an error to the caller (issue satellite 4).
func TestTotalFaultAlwaysServesFP32(t *testing.T) {
	_, g, _, inputs := fixture(t)
	inj := faults.Scenario("total", 1).New("nx")
	ex := newExec(t, inj, nil)
	for i, x := range inputs {
		res, err := ex.DoBatchCtx(nil, inputs[i:i+1], i)
		if err != nil {
			t.Fatalf("request %d errored under total faults: %v", i, err)
		}
		if res.Tier != serve.TierFP32 || !res.Degraded {
			t.Fatalf("request %d served by %v, want fp32 fallback", i, res.Tier)
		}
		want, err := g.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(res.Outputs[0], want) {
			t.Fatalf("request %d fallback outputs differ from graph.Execute", i)
		}
	}
	st := ex.Stats()
	if st.TierServed[serve.TierFP32] != uint64(len(inputs)) {
		t.Fatalf("fp32 served %d of %d", st.TierServed[serve.TierFP32], len(inputs))
	}
	if inj.Counters().Total() == 0 {
		t.Fatal("no faults counted under a rate-1 plan")
	}
	if ex.Health().State == "healthy" {
		t.Fatal("health still reports healthy under total faults")
	}
}

// With only launch failures enabled, every injected fault is one failed
// attempt — the timed pass fails at its first launch, so the numeric
// pass never runs — and the injector and executor ledgers must
// reconcile exactly: launch-fails == retries + terminal tier failures.
func TestCountersAccountForEveryFault(t *testing.T) {
	_, _, _, inputs := fixture(t)
	inj := faults.Plan{Seed: "ledger", LaunchFailRate: 1}.New("nx")
	ex := newExec(t, inj, nil)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := ex.DoBatchCtx(nil, inputs[i%len(inputs):i%len(inputs)+1], i); err != nil {
			t.Fatal(err)
		}
	}
	st := ex.Stats()
	if st.Requests != n {
		t.Fatalf("requests %d, want %d", st.Requests, n)
	}
	var served uint64
	for _, c := range st.TierServed {
		served += c
	}
	if served != n {
		t.Fatalf("tier-served sum %d, want %d", served, n)
	}
	var tierFails uint64
	for _, c := range st.TierFailures {
		tierFails += c
	}
	launchFails := inj.Counters().Get(faults.KindLaunchFail)
	if launchFails != st.Retries+tierFails {
		t.Fatalf("ledger mismatch: %d launch faults vs %d retries + %d tier failures",
			launchFails, st.Retries, tierFails)
	}
	if st.BreakerTrips == 0 || st.BreakerSkips == 0 {
		t.Fatalf("breaker never engaged: %+v", st)
	}
}

// The breaker must trip after 5 consecutive primary failures,
// short-circuit for 10 requests, then probe.
func TestCircuitBreakerLifecycle(t *testing.T) {
	_, _, _, inputs := fixture(t)
	x := inputs[:1]
	inj := faults.Plan{Seed: "brk", LaunchFailRate: 1}.New("nx")
	ex := newExec(t, inj, nil)
	// Five failing requests trip the breaker; four do not.
	for i := 0; i < 5; i++ {
		if st := ex.Health().State; st == "open" {
			t.Fatalf("breaker open after %d failures, want 5", i)
		}
		if _, err := ex.DoBatchCtx(nil, x, i); err != nil {
			t.Fatal(err)
		}
	}
	if ex.Health().State != "open" {
		t.Fatalf("breaker state %q after threshold failures, want open", ex.Health().State)
	}
	if ex.Stats().BreakerTrips != 1 {
		t.Fatalf("trips %d, want 1", ex.Stats().BreakerTrips)
	}
	// The next 10 requests skip the primary entirely: no new launch
	// faults are drawn for the tuned tier.
	before := inj.Counters().Get(faults.KindLaunchFail)
	for i := 0; i < 10; i++ {
		if _, err := ex.DoBatchCtx(nil, x, 10+i); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Counters().Get(faults.KindLaunchFail); got != before {
		t.Fatalf("open breaker still reached the engine: %d new faults", got-before)
	}
	if ex.Stats().BreakerSkips != 10 {
		t.Fatalf("skips %d, want 10", ex.Stats().BreakerSkips)
	}
	// Cooldown spent: the next request is a half-open probe that reaches
	// the (still failing) engine and re-arms the cooldown.
	if _, err := ex.DoBatchCtx(nil, x, 20); err != nil {
		t.Fatal(err)
	}
	if got := inj.Counters().Get(faults.KindLaunchFail); got == before {
		t.Fatal("half-open probe never reached the engine")
	}
	if ex.Health().State != "open" {
		t.Fatal("failed probe should leave the breaker open")
	}
}

// A lower-batch standby engine is tried before the FP32 tier.
func TestLowBatchTier(t *testing.T) {
	eng, g, dev, inputs := fixture(t)
	// The primary cannot serve numeric requests (timing-only engine); the
	// numeric standby should pick them up before the FP32 tier.
	ex, err := serve.New(serve.Config{
		Engine:   failingEngine(t),
		LowBatch: eng,
		Fallback: g,
		Device:   dev,
		Injector: nil,
		Seed:     "lb",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.DoBatchCtx(nil, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != serve.TierLowBatch || !res.Degraded {
		t.Fatalf("served by %v, want low-batch", res.Tier)
	}
}

// failingEngine returns a timing-only engine: numeric requests cannot be
// served by it (the numeric pass errors), forcing degradation without faults.
func failingEngine(t *testing.T) *core.Engine {
	t.Helper()
	g := models.MustBuild("resnet18")
	e, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 7))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// A budget that does not abort is recorded but never prevents an answer.
func TestDeadlineMissStillServes(t *testing.T) {
	ex := newExec(t, nil, nil)
	_, _, _, inputs := fixture(t)
	res, err := ex.DoBatchCtx(&rtctx.Request{BudgetSec: 1e-9}, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineMiss {
		t.Fatal("1ns deadline not recorded as missed")
	}
	if res.Outputs[0] == nil {
		t.Fatal("deadline miss dropped the answer")
	}
	if ex.Stats().DeadlineMisses != 1 {
		t.Fatalf("deadline misses %d, want 1", ex.Stats().DeadlineMisses)
	}
}

// Memory-pressure admission: a capacity too small for the engine's
// per-thread footprint pushes every request to the FP32 tier.
func TestAllocPressureDegrades(t *testing.T) {
	eng, _, _, inputs := fixture(t)
	inj := faults.Plan{Seed: "mem", CapacityBytes: eng.PerThreadMemBytes() / 2}.New("nx")
	ex := newExec(t, inj, nil)
	res, err := ex.DoBatchCtx(nil, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != serve.TierFP32 {
		t.Fatalf("served by %v under memory pressure, want fp32", res.Tier)
	}
	if ex.Stats().AllocRejects != 1 {
		t.Fatalf("alloc rejects %d, want 1", ex.Stats().AllocRejects)
	}
}

// Concurrent requests under a mid-rate plan: exercised under -race; all
// requests complete and the ledgers stay consistent.
func TestConcurrentRequests(t *testing.T) {
	_, _, _, inputs := fixture(t)
	inj := faults.Scenario("conc", 0.2).New("nx")
	ex := newExec(t, inj, nil)
	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := inputs[(w*perWorker+i)%len(inputs)]
				if _, err := ex.DoBatchCtx(nil, []*tensor.Tensor{x}, w*perWorker+i); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("requests %d, want %d", st.Requests, workers*perWorker)
	}
	var served uint64
	for _, c := range st.TierServed {
		served += c
	}
	if served != workers*perWorker {
		t.Fatalf("tier-served sum %d, want %d", served, workers*perWorker)
	}
}

// Retry backoff must not accumulate past the request budget: the
// modeled wait is clamped to what is left (and the clamp is counted), so
// a budgeted request's latency is bounded by the budget plus real
// attempt/fallback work — never budget plus a full exponential backoff
// ladder. The budget does not abort, so the request is answered late.
func TestBackoffClampedByDeadline(t *testing.T) {
	_, g, dev, inputs := fixture(t)
	const budget = 0.2e-3 // the first backoff alone (0.5–1.5ms) overshoots it
	mk := func() *serve.Executor {
		return newExec(t, faults.Plan{Seed: "clamp", LaunchFailRate: 1}.New("nx"), nil)
	}
	clamped := mk()
	res, err := clamped.DoBatchCtx(&rtctx.Request{BudgetSec: budget}, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := clamped.Stats(); st.BackoffClamps == 0 {
		t.Fatalf("no backoff clamps recorded: %+v", st)
	}
	// Bound: budget + the burned time of failed attempts (each dies at
	// its first launch, microseconds) + the FP32 fallback's serve cost.
	bound := budget + core.UnoptimizedRun(g, dev) + 0.3e-3
	if res.LatencySec > bound {
		t.Fatalf("latency %.6fs exceeds %.6fs: backoff accumulated past the budget", res.LatencySec, bound)
	}
	if !res.DeadlineMiss {
		t.Fatal("deadline miss not recorded")
	}

	// Without a budget the same fault sequence pays the full ladder,
	// and the clamp counter must stay untouched.
	free := mk()
	res2, err := free.DoBatchCtx(nil, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.LatencySec <= res.LatencySec {
		t.Fatalf("unclamped latency %.6fs not above clamped %.6fs", res2.LatencySec, res.LatencySec)
	}
	if free.Stats().BackoffClamps != 0 {
		t.Fatal("clamp counted with no budget")
	}
}

func TestConfigValidation(t *testing.T) {
	eng, g, dev, _ := fixture(t)
	for _, cfg := range []serve.Config{
		{Fallback: g, Device: dev},
		{Engine: eng, Device: dev},
		{Engine: eng, Fallback: g},
	} {
		if _, err := serve.New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
