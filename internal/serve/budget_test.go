package serve

import (
	"errors"
	"math"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// failEveryLaunch fails every kernel launch, so each replica attempt
// burns a deterministic latency and errors.
type failEveryLaunch struct{}

func (failEveryLaunch) Launch(int, string) core.LaunchFault                         { return core.LaunchFault{Fail: true} }
func (failEveryLaunch) MemcpyH2D(int64) (int, error)                                { return 0, nil }
func (failEveryLaunch) CorruptWeights(_, _ string, _ *tensor.Tensor) *tensor.Tensor { return nil }
func (failEveryLaunch) CorruptActivation(string, *tensor.Tensor)                    {}

// A budget is overrun only strictly past it: a Pool batch whose every
// replica errored is abandoned before the FP32 tier only when the
// slowest give-up is past the aborting budget. Given up exactly at the
// budget, the batch is still alive and the FP32 tier answers it; one
// ulp less of budget abandons it.
func TestPoolAbandonsOnlyPastBudget(t *testing.T) {
	spec := gpusim.XavierNX()
	dev := gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
	var xs []*tensor.Tensor
	for _, s := range dataset.Benign(dataset.DefaultBenign(1))[:2] {
		xs = append(xs, s.Image)
	}
	newFleet := func() *Pool {
		p, err := NewPool(NewRegistry(spec, nil), PoolConfig{
			Model:           "resnet18",
			ReplicaInjector: func(int, *core.Engine) core.FaultInjector { return failEveryLaunch{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := newFleet()
	var gaveUp float64
	for _, e := range p.Engines() {
		run, err := e.RunFaulty(core.RunConfig{Device: dev}, failEveryLaunch{})
		if err == nil {
			t.Fatal("a replica ran clean under a fail-every-launch injector")
		}
		gaveUp = max(gaveUp, run.LatencySec)
	}
	br, err := p.DoBatchCtx(rtctx.WithBudget(gaveUp), xs, 0)
	if err != nil {
		t.Fatalf("given up exactly at the budget: %v, want an FP32 answer", err)
	}
	for i, r := range br.Results {
		if !r.Fallback || r.Outputs == nil {
			t.Fatalf("image %d not served by the FP32 tier: %+v", i, r)
		}
	}
	if st := p.Stats(); st.DeadlineAborts != 0 || st.FP32Served != uint64(len(xs)) || !br.DeadlineMiss {
		t.Fatalf("stats %+v, miss %v: want no abort, %d FP32 answers, and a late batch", st, br.DeadlineMiss, len(xs))
	}

	_, err = newFleet().DoBatchCtx(rtctx.WithBudget(math.Nextafter(gaveUp, 0)), xs, 0)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("given up one ulp past the budget: error %v, want ErrDeadlineExceeded", err)
	}
}
