package serve_test

// Typed deadline error and per-request deadline variants (issue
// satellite: the serving front-end maps deadline misses to a distinct
// HTTP status and metric, which needs errors.Is, not string matching).

import (
	"errors"
	"strings"
	"testing"

	"edgeinfer/internal/faults"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
)

// stallPlan burns well over a microsecond of simulated latency on every
// attempt (a 2ms stream stall per launch) and fails every launch, so a
// tiny per-request deadline is guaranteed to expire before any
// accelerated tier serves.
func stallPlan(seed string) faults.Plan {
	return faults.Plan{
		Seed:           seed,
		LaunchFailRate: 1,
		StallRate:      1,
		StallSec:       2e-3,
	}
}

// A request whose budget expires before any tier serves is abandoned
// with the typed error, never answered late and never an untyped string.
func TestDoDeadlineAbortsWithTypedError(t *testing.T) {
	abortsWithTypedError(t, "dl-abort", 1)
}

// A batch shares the abort contract.
func TestDoBatchDeadlineAbortsWithTypedError(t *testing.T) {
	abortsWithTypedError(t, "dl-batch-abort", 4)
}

// abortsWithTypedError serves n images under a 1µs aborting budget on a
// fresh Pool of one whose every attempt stalls and fails: one abort with
// serve.ErrDeadlineExceeded, after the replica's failure is booked.
func abortsWithTypedError(t *testing.T, seed string, n int) {
	t.Helper()
	_, _, _, inputs := fixture(t)
	p := poolOfOne(t, stallPlan(seed).New("nx"))
	br, err := p.DoBatchCtx(rtctx.WithBudget(1e-6), inputs[:n], 0)
	if err == nil {
		t.Fatalf("expected deadline abort, got result %+v", br)
	}
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("error %v is not serve.ErrDeadlineExceeded", err)
	}
	if st := p.Stats(); st.DeadlineAborts != 1 || st.ReplicaFails != 1 || st.FP32Served != 0 {
		t.Fatalf("stats after one abort: %+v", st)
	}
}

// With a generous budget on a pristine Pool of one, the budgeted calls
// are bit-identical to the unbudgeted ones: same latency, same outputs,
// no misses, no error.
func TestDoDeadlinePristineMatchesDo(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := poolOfOne(t, nil)
	for _, n := range []int{1, 3} {
		want, err := p.DoBatchCtx(nil, inputs[:n], 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DoBatchCtx(rtctx.WithBudget(10), inputs[:n], 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.LatencySec != want.LatencySec || got.DeadlineMiss {
			t.Fatalf("%d images: budgeted %+v differs from unbudgeted %+v", n, got, want)
		}
		for i := range want.Results {
			if got.Results[i].Fallback || !sameOutputs(got.Results[i].Outputs, want.Results[i].Outputs) {
				t.Fatalf("%d images: image %d outputs differ", n, i)
			}
		}
	}
}

// A budget without Abort keeps the answer-late contract even when the
// same scenario would abort an aborting one: the request is answered,
// via FP32, with the miss recorded — never ErrDeadlineExceeded.
func TestDoStillAnswersLate(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := poolOfOne(t, stallPlan("dl-late").New("nx"))
	br, err := p.DoBatchCtx(&rtctx.Request{BudgetSec: 1e-6}, inputs[:1], 0)
	if err != nil {
		t.Fatalf("a non-aborting budget must not return deadline errors: %v", err)
	}
	if !br.Results[0].Fallback || !br.DeadlineMiss || br.Results[0].Outputs == nil {
		t.Fatalf("late request not answered by FP32 with a recorded miss: %+v", br.Results[0])
	}
	if got := p.Stats().DeadlineAborts; got != 0 {
		t.Fatalf("non-aborting budget counted %d deadline aborts", got)
	}
}

// A budget the expected launch schedule cannot meet stops every replica
// at a layer boundary — a Pool of one (the executor) or a fleet of
// three, one image or two alike: the typed mid-graph error, one abort
// counted per request, and nothing booked against a replica that did not
// fault — no ReplicaFail, no strike, and its latency still observed.
func TestBudgetAbortsMidGraph(t *testing.T) {
	eng, _, dev, inputs := fixture(t)
	ctx := rtctx.WithBudget(eng.ExpectedLatencySec(dev, false) / 2)
	for _, k := range []int{1, 3} {
		p := newPool(t, func(c *serve.PoolConfig) { c.Replicas = k })
		for _, n := range []int{1, 2} {
			_, err := p.DoBatchCtx(ctx, inputs[:n], 0)
			if !errors.Is(err, serve.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "mid-graph") {
				t.Fatalf("%d replicas, %d images: error %v is not a mid-graph serve.ErrDeadlineExceeded", k, n, err)
			}
		}
		st := p.Stats()
		if st.DeadlineAborts != 2 || st.ReplicaFails != 0 || st.FP32Served != 0 || st.Detections != 0 {
			t.Fatalf("%d replicas: stats after two mid-graph aborts: %+v", k, st)
		}
		h := p.Health()
		for _, r := range h.Replicas {
			if r.State != "healthy" || r.Samples != 2 {
				t.Fatalf("%d replicas: budget exhaustion booked against replica %d: %+v", k, r.Slot, r)
			}
		}
	}
}
