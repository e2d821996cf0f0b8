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

// poolOfOne builds the plain resilient server, a Pool of one: one
// registry-built resnet18 replica running under inj, and the FP32
// reference behind it.
func poolOfOne(t *testing.T, inj core.FaultInjector) *serve.Pool {
	t.Helper()
	return newPool(t, func(c *serve.PoolConfig) {
		c.Replicas = 1
		if inj != nil {
			c.ReplicaInjector = func(int, *core.Engine) core.FaultInjector { return inj }
		}
	})
}

// served counts the images the replica answered and those the FP32
// tier did.
func served(st serve.PoolStats) uint64 { return st.QuorumServed + st.FP32Served }

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

// At fault rate zero a Pool of one must be bit-identical to calling its
// replica's Engine.Run and Engine.Infer directly.
func TestZeroRateBitIdentical(t *testing.T) {
	_, _, dev, inputs := fixture(t)
	for _, inj := range []core.FaultInjector{nil, faults.Scenario("zr", 0).New("nx")} {
		p := poolOfOne(t, inj)
		eng := p.Engines()[0]
		for run := 0; run < 3; run++ {
			br, err := p.DoBatchCtx(nil, inputs[run:run+1], run)
			if err != nil {
				t.Fatal(err)
			}
			got := br.Results[0]
			direct := eng.Run(core.RunConfig{Device: dev, RunIndex: run})
			if got.LatencySec != direct.LatencySec || br.LatencySec != direct.LatencySec {
				t.Fatalf("latency %v (batch %v) != direct %v (injector=%v)", got.LatencySec, br.LatencySec, direct.LatencySec, inj != nil)
			}
			want, err := eng.Infer(inputs[run])
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(got.Outputs, want) {
				t.Fatalf("outputs differ from direct Infer (injector=%v)", inj != nil)
			}
			if got.Fallback || got.Replica != 0 || got.Voters != 1 || got.Majority != 1 {
				t.Fatalf("pristine request degraded: %+v", got)
			}
		}
		if got, want := p.Stats(), (serve.PoolStats{Requests: 3, QuorumServed: 3}); got != want {
			t.Fatalf("pristine stats %+v, want %+v (injector=%v)", got, want, inj != nil)
		}
	}
}

// Property: under a 100%-fault plan every request is still answered, via
// the FP32 reference tier, with outputs identical to graph.Execute —
// never an error to the caller.
func TestTotalFaultAlwaysServesFP32(t *testing.T) {
	_, g, _, inputs := fixture(t)
	inj := faults.Scenario("total", 1).New("nx")
	p := poolOfOne(t, inj)
	for i, x := range inputs {
		br, err := p.DoBatchCtx(nil, inputs[i:i+1], i)
		if err != nil {
			t.Fatalf("request %d errored under total faults: %v", i, err)
		}
		res := br.Results[0]
		if !res.Fallback || res.Replica != -1 {
			t.Fatalf("request %d served by replica %d, want fp32 fallback", i, res.Replica)
		}
		want, err := g.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(res.Outputs, want) {
			t.Fatalf("request %d fallback outputs differ from graph.Execute", i)
		}
	}
	st := p.Stats()
	if st.FP32Served != uint64(len(inputs)) {
		t.Fatalf("fp32 served %d of %d", st.FP32Served, len(inputs))
	}
	if inj.Counters().Total() == 0 {
		t.Fatal("no faults counted under a rate-1 plan")
	}
	if st.Quarantines == 0 {
		t.Fatalf("a replica failing every request was never quarantined: %+v", st)
	}
}

// With only launch failures enabled, every injected fault is one failed
// replica attempt — the timed pass fails at its first launch, so the
// numeric pass never runs — and the injector and pool ledgers must
// reconcile exactly: launch-fails == replica fails. A quarantined
// replica is not attempted, so it draws no fault.
func TestCountersAccountForEveryFault(t *testing.T) {
	_, _, _, inputs := fixture(t)
	inj := faults.Plan{Seed: "ledger", LaunchFailRate: 1}.New("nx")
	p := poolOfOne(t, inj)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := p.DoBatchCtx(nil, inputs[i%len(inputs):i%len(inputs)+1], i); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Requests != n || served(st) != n || st.FP32Served != n {
		t.Fatalf("requests %d, served %d (fp32 %d), want %d each", st.Requests, served(st), st.FP32Served, n)
	}
	launchFails := inj.Counters().Get(faults.KindLaunchFail)
	if launchFails != st.ReplicaFails {
		t.Fatalf("ledger mismatch: %d launch faults vs %d replica fails", launchFails, st.ReplicaFails)
	}
	if st.Quarantines == 0 || st.ReplicaFails == n {
		t.Fatalf("supervisor never took the failing replica out of dispatch: %+v", st)
	}
}

// The standby engine of the old low-batch tier is a second replica: when
// replica 0 fails, replica 1 answers alone — a one-voter majority —
// before the FP32 tier is needed.
func TestLowBatchTier(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.Replicas = 2
		c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
			if slot != 0 {
				return nil
			}
			return faults.Plan{Seed: "standby", LaunchFailRate: 1}.New("nx")
		}
	})
	br, err := p.DoBatchCtx(nil, inputs[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res.Fallback || res.Replica != 1 || res.Voters != 1 || res.Majority != 1 {
			t.Fatalf("image %d: %+v, want replica 1 alone", i, res)
		}
	}
	if st := p.Stats(); st.ReplicaFails != 1 || st.QuorumServed != 2 || st.FP32Served != 0 {
		t.Fatalf("stats %+v, want one failed replica attempt and two replica answers", st)
	}
}

// A budget that does not abort is recorded but never prevents an answer.
func TestDeadlineMissStillServes(t *testing.T) {
	p := poolOfOne(t, nil)
	_, _, _, inputs := fixture(t)
	br, err := p.DoBatchCtx(&rtctx.Request{BudgetSec: 1e-9}, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !br.DeadlineMiss {
		t.Fatal("1ns deadline not recorded as missed")
	}
	if br.Results[0].Outputs == nil {
		t.Fatal("deadline miss dropped the answer")
	}
	if p.Stats().DeadlineMisses != 1 {
		t.Fatalf("deadline misses %d, want 1", p.Stats().DeadlineMisses)
	}
}

// Memory-pressure admission: a capacity too small for the engine's
// per-thread footprint fails the replica's attempt before any launch and
// pushes the request to the FP32 tier.
func TestAllocPressureDegrades(t *testing.T) {
	eng, g, dev, inputs := fixture(t)
	inj := faults.Plan{Seed: "mem", CapacityBytes: eng.PerThreadMemBytes() / 2}.New("nx")
	p := poolOfOne(t, inj)
	br, err := p.DoBatchCtx(nil, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Fallback {
		t.Fatalf("served by replica %d under memory pressure, want fp32", br.Results[0].Replica)
	}
	if got := inj.Counters().Get(faults.KindAllocFail); got != 1 || p.Stats().ReplicaFails != 1 {
		t.Fatalf("alloc rejects %d, replica fails %d; want 1 each", got, p.Stats().ReplicaFails)
	}
	// Refused before any launch: the FP32 pass starts at once.
	if got, want := br.LatencySec, core.UnoptimizedRun(g, dev); got != want {
		t.Fatalf("latency %v, want the FP32 pass alone %v", got, want)
	}
}

// Concurrent requests under a mid-rate plan: exercised under -race; all
// requests complete and the ledgers stay consistent.
func TestConcurrentRequests(t *testing.T) {
	_, _, _, inputs := fixture(t)
	inj := faults.Scenario("conc", 0.2).New("nx")
	p := poolOfOne(t, inj)
	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := inputs[(w*perWorker+i)%len(inputs)]
				if _, err := p.DoBatchCtx(nil, []*tensor.Tensor{x}, w*perWorker+i); err != nil {
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
	st := p.Stats()
	if st.Requests != workers*perWorker || served(st) != workers*perWorker {
		t.Fatalf("requests %d, served %d, want %d each", st.Requests, served(st), workers*perWorker)
	}
}
