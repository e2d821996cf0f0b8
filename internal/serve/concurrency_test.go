package serve_test

// Regression tests for the lockorder fixes: the fleet mutex must never
// be held across replica inference, so observability calls answer while
// a request is in flight, and a deadline-carrying batch whose budget is
// already burned is abandoned instead of paying the FP32 tier.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// gateInjector parks the first kernel launch until released, simulating
// a slow in-flight inference without touching wall-clock modeling.
type gateInjector struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateInjector() *gateInjector {
	return &gateInjector{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateInjector) Launch(int, string) core.LaunchFault {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return core.LaunchFault{}
}
func (g *gateInjector) MemcpyH2D(int64) (int, error)                                { return 0, nil }
func (g *gateInjector) CorruptWeights(_, _ string, _ *tensor.Tensor) *tensor.Tensor { return nil }
func (g *gateInjector) CorruptActivation(string, *tensor.Tensor)                    {}

// failInjector fails every kernel launch, so each replica attempt burns
// latency and errors.
type failInjector struct{}

func (failInjector) Launch(int, string) core.LaunchFault                         { return core.LaunchFault{Fail: true} }
func (failInjector) MemcpyH2D(int64) (int, error)                                { return 0, nil }
func (failInjector) CorruptWeights(_, _ string, _ *tensor.Tensor) *tensor.Tensor { return nil }
func (failInjector) CorruptActivation(string, *tensor.Tensor)                    {}

// Health, Stats and Transcript must answer while an inference is in
// flight: the request path holds the serialization token end to end but
// may not hold p.mu across replica execution (the exact pattern the
// lockorder analyzer forbids).
func TestPoolHealthNotBlockedDuringInference(t *testing.T) {
	_, _, _, inputs := fixture(t)
	gate := newGateInjector()
	p := newPool(t, func(c *serve.PoolConfig) {
		c.ReplicaInjector = func(int, *core.Engine) core.FaultInjector { return gate }
	})

	done := make(chan error, 1)
	go func() {
		_, err := p.DoBatchCtx(nil, inputs[:1], 0)
		done <- err
	}()

	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("inference never reached the gated launch")
	}

	observed := make(chan struct{})
	go func() {
		p.Health()
		p.Stats()
		p.Transcript()
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		close(gate.release)
		t.Fatal("Health/Stats/Transcript blocked behind an in-flight inference")
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("gated request failed: %v", err)
	}
}

// A deadline-carrying batch whose replicas all burned the budget is
// abandoned with ErrDeadlineExceeded and counted, by a fleet of three
// and by a fleet of one alike; the deadline-free twin still degrades to
// FP32.
func TestPoolDoBatchDeadlineAborts(t *testing.T) {
	_, _, _, inputs := fixture(t)
	for _, k := range []int{1, 3} {
		p := newPool(t, func(c *serve.PoolConfig) {
			c.Replicas = k
			c.ReplicaInjector = func(int, *core.Engine) core.FaultInjector { return failInjector{} }
		})
		_, err := p.DoBatchCtx(rtctx.WithBudget(1e-12), inputs[:2], 0)
		if !errors.Is(err, serve.ErrDeadlineExceeded) {
			t.Fatalf("replicas=%d error %v is not serve.ErrDeadlineExceeded", k, err)
		}
		if st := p.Stats(); st.DeadlineAborts != 1 {
			t.Fatalf("replicas=%d DeadlineAborts = %d, want 1", k, st.DeadlineAborts)
		}
		// A single request is a batch of one: same abandon, same count.
		if _, err := p.DoBatchCtx(rtctx.WithBudget(1e-12), inputs[:1], 1); !errors.Is(err, serve.ErrDeadlineExceeded) {
			t.Fatalf("replicas=%d single-request error %v is not serve.ErrDeadlineExceeded", k, err)
		}
		if st := p.Stats(); st.DeadlineAborts != 2 {
			t.Fatalf("replicas=%d DeadlineAborts = %d after the single request, want 2", k, st.DeadlineAborts)
		}
		br, err := p.DoBatchCtx(nil, inputs[:2], 2)
		if err != nil {
			t.Fatalf("replicas=%d deadline-free batch errored: %v", k, err)
		}
		for i, r := range br.Results {
			if !r.Fallback {
				t.Fatalf("replicas=%d image %d not served by FP32 tier: %+v", k, i, r)
			}
		}
	}
}

// A quorum batch whose every replica errored degrades to the FP32 tier
// once the slowest replica has given up: the replicas are hedged, so
// they fail concurrently and the batch waits for the maximum of their
// burned latencies, not for nothing and not for their sum. The abort
// check compares that same instant against the budget.
func TestPoolQuorumAllErroredWaitsForSlowest(t *testing.T) {
	_, g, dev, inputs := fixture(t)
	mk := func() *serve.Pool {
		return newPool(t, func(c *serve.PoolConfig) {
			c.ReplicaInjector = func(int, *core.Engine) core.FaultInjector { return failInjector{} }
		})
	}
	p := mk()
	var slowest, sum float64
	for _, e := range p.Engines() {
		run, err := e.RunFaulty(core.RunConfig{Device: dev}, failInjector{})
		if err == nil || run.LatencySec <= 0 {
			t.Fatalf("failing replica run: latency %v, err %v", run.LatencySec, err)
		}
		slowest = max(slowest, run.LatencySec)
		sum += run.LatencySec
	}
	br, err := p.DoBatchCtx(nil, inputs[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := br.Results[0]; !r.Fallback || r.LatencySec != slowest+core.UnoptimizedRun(g, dev) {
		t.Fatalf("all-errored quorum released at %.12gs (fallback %v), want slowest give-up %.12gs + FP32 %.12gs",
			r.LatencySec, r.Fallback, slowest, core.UnoptimizedRun(g, dev))
	}
	// A budget between the slowest give-up and the sum of the give-ups
	// is still alive when the FP32 tier starts: answered late, not abandoned.
	if _, err := mk().DoBatchCtx(rtctx.WithBudget((slowest+sum)/2), inputs[:1], 0); err != nil {
		t.Fatalf("budget above the slowest give-up abandoned: %v", err)
	}
	if _, err := mk().DoBatchCtx(rtctx.WithBudget(slowest/2), inputs[:1], 0); !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("budget below the slowest give-up: error %v, want serve.ErrDeadlineExceeded", err)
	}
}
