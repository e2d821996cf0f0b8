package serve_test

// Concurrency hammer tests (issue satellite: run under -race via ci.sh).
// They assert no data races and consistent ledgers when the registry,
// the executor and the pool are driven from parallel goroutines.

import (
	"fmt"
	"sync"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Registry.Engine / ProxyEngine / Rebuild / Stats hammered in parallel:
// memoization, the shared timing cache, and the build counter must stay
// consistent, and every caller must get a servable engine.
func TestRegistryConcurrentEngineRebuild(t *testing.T) {
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	names := []string{"resnet18", "alexnet"}
	const workers, iters = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := names[(w+i)%len(names)]
				var e *core.Engine
				var err error
				switch (w + i) % 3 {
				case 0:
					e, err = reg.Engine(m)
				case 1:
					e, err = reg.ProxyEngine(m)
				default:
					e, err = reg.Rebuild(m)
				}
				if err != nil {
					errs <- err
					continue
				}
				if e.ModelName != m {
					errs <- fmt.Errorf("got engine %s for model %s", e.ModelName, m)
				}
				reg.Stats()
				reg.TimingCache().Len()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Post-hammer: the cache is warm, so a rebuild is canonical.
	e, err := reg.Rebuild("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	if e.BuildID != 0 || e.Report == nil || !e.Report.WarmBuild {
		t.Fatalf("post-hammer rebuild not warm-canonical: id=%d report=%+v", e.BuildID, e.Report)
	}
}

// Executor.DoBatchCtx hammered from parallel goroutines under a mid-rate
// fault plan, each request on a non-aborting 1s budget, while
// Stats/Health are polled concurrently.
func TestExecutorConcurrentDoWithPolling(t *testing.T) {
	_, _, _, inputs := fixture(t)
	inj := faults.Scenario("race-exec", 0.3).New("nx")
	ex := newExec(t, inj, nil)
	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ex.Stats()
				ex.Health()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := inputs[(w+i)%len(inputs)]
				if _, err := ex.DoBatchCtx(&rtctx.Request{BudgetSec: 1}, []*tensor.Tensor{x}, w*perWorker+i); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ex.Stats().Requests; got != workers*perWorker {
		t.Fatalf("requests %d, want %d", got, workers*perWorker)
	}
}

// Pool.DoBatchCtx hammered in parallel under replica havoc while health and
// transcript are polled: the supervisor's bookkeeping must stay
// consistent (requests serialize on the pool lock, pollers race it).
func TestPoolConcurrentDo(t *testing.T) {
	_, _, _, inputs := fixture(t)
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	p, err := serve.NewPool(reg, serve.PoolConfig{
		Model:           "resnet18",
		Quorum:          true,
		ReplicaInjector: havocOn(2, "race-pool"),
		Canary:          inputs[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				p.Health()
				p.Stats()
				p.Transcript()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := p.DoBatchCtx(nil, []*tensor.Tensor{inputs[(w+i)%len(inputs)]}, w*perWorker+i); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Stats().Requests; got != workers*perWorker {
		t.Fatalf("requests %d, want %d", got, workers*perWorker)
	}
}

// Pool.Health / Pool.Stats polled and invariant-checked while replica
// havoc drives quarantine/readmission churn (issue satellite): every
// snapshot a concurrent observer can take must be internally consistent
// — Active matches the dispatch-eligible replica states, every state
// name is a real state, slots stay put, and the healing counters only
// ever move forward.
func TestPoolHealthInvariantsUnderChurn(t *testing.T) {
	_, _, _, inputs := fixture(t)
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	p, err := serve.NewPool(reg, serve.PoolConfig{
		Model:           "resnet18",
		Quorum:          true,
		ReplicaInjector: havocOn(2, "race-health"),
		Canary:          inputs[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatchable := map[string]bool{"healthy": true, "suspect": true, "readmitted": true}
	known := map[string]bool{
		"healthy": true, "suspect": true, "quarantined": true,
		"rebuilding": true, "readmitted": true,
	}

	const workers, perWorker = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+64)
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		var prev serve.PoolStats
		polls := 0
		for {
			select {
			case <-stop:
				if polls == 0 {
					errs <- fmt.Errorf("health poller never ran")
				}
				return
			default:
			}
			polls++
			h := p.Health()
			eligible := 0
			for i, r := range h.Replicas {
				if !known[r.State] {
					errs <- fmt.Errorf("replica %d in unknown state %q", r.Slot, r.State)
				}
				if r.Slot != i {
					errs <- fmt.Errorf("replica slot %d reported at index %d", r.Slot, i)
				}
				if dispatchable[r.State] {
					eligible++
				}
			}
			if h.Active != eligible {
				errs <- fmt.Errorf("health says %d active, states say %d: %+v", h.Active, eligible, h.Replicas)
			}
			s := p.Stats()
			if s.Requests < prev.Requests || s.Quarantines < prev.Quarantines ||
				s.Rebuilds < prev.Rebuilds || s.Readmissions < prev.Readmissions ||
				s.Detections < prev.Detections {
				errs <- fmt.Errorf("pool counters moved backwards: %+v -> %+v", prev, s)
			}
			if s.Readmissions > s.Quarantines {
				errs <- fmt.Errorf("%d readmissions exceed %d quarantines", s.Readmissions, s.Quarantines)
			}
			prev = s
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := p.DoBatchCtx(nil, []*tensor.Tensor{inputs[(w+i)%len(inputs)]}, w*perWorker+i); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-pollerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The havoc plan must actually have exercised the lifecycle, or the
	// invariants above were vacuous.
	if s := p.Stats(); s.Quarantines == 0 {
		t.Fatalf("no quarantine churn under havoc: %+v", s)
	}
}
