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
// fresh executor whose every attempt stalls and fails: one abort with
// serve.ErrDeadlineExceeded, also counted as a miss.
func abortsWithTypedError(t *testing.T, seed string, n int) {
	t.Helper()
	_, _, _, inputs := fixture(t)
	ex := newExec(t, stallPlan(seed).New("nx"), nil)
	res, err := ex.DoBatchCtx(rtctx.WithBudget(1e-6), inputs[:n], 0)
	if err == nil {
		t.Fatalf("expected deadline abort, got result %+v", res)
	}
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("error %v is not serve.ErrDeadlineExceeded", err)
	}
	st := ex.Stats()
	if st.DeadlineAborts != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1", st.DeadlineAborts)
	}
	if st.DeadlineMisses == 0 {
		t.Fatalf("an aborted request must also count as a deadline miss: %+v", st)
	}
}

// With a generous budget on a pristine executor, the budgeted calls are
// bit-identical to the unbudgeted ones: same tier, same latency, same
// outputs, no misses, no error.
func TestDoDeadlinePristineMatchesDo(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, nil, nil)
	for _, n := range []int{1, 3} {
		want, err := ex.DoBatchCtx(nil, inputs[:n], 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.DoBatchCtx(rtctx.WithBudget(10), inputs[:n], 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tier != want.Tier || got.LatencySec != want.LatencySec || got.DeadlineMiss {
			t.Fatalf("%d images: budgeted %+v differs from unbudgeted %+v", n, got, want)
		}
		for i := range want.Outputs {
			if !sameOutputs(got.Outputs[i], want.Outputs[i]) {
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
	ex := newExec(t, stallPlan("dl-late").New("nx"), nil)
	res, err := ex.DoBatchCtx(&rtctx.Request{BudgetSec: 1e-6}, inputs[:1], 0)
	if err != nil {
		t.Fatalf("a non-aborting budget must not return deadline errors: %v", err)
	}
	if res.Tier != serve.TierFP32 || !res.DeadlineMiss || res.Outputs[0] == nil {
		t.Fatalf("late request not answered by FP32 with a recorded miss: %+v", res)
	}
	if got := ex.Stats().DeadlineAborts; got != 0 {
		t.Fatalf("non-aborting budget counted %d deadline aborts", got)
	}
}

// A budget the expected launch schedule cannot meet stops a request at a
// layer boundary — one image or two alike: the typed error, one abort
// counted per request, and nothing booked against an engine or replica
// that did not fault.
func TestBudgetAbortsMidGraph(t *testing.T) {
	eng, _, dev, inputs := fixture(t)
	ctx := rtctx.WithBudget(eng.ExpectedLatencySec(dev, false) / 2)
	midGraph := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, serve.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "mid-graph") {
			t.Fatalf("%s: error %v is not a mid-graph serve.ErrDeadlineExceeded", label, err)
		}
	}

	ex := newExec(t, nil, nil)
	_, err := ex.DoBatchCtx(ctx, inputs[:1], 0)
	midGraph("executor, one image", err)
	_, err = ex.DoBatchCtx(ctx, inputs[:2], 0)
	midGraph("executor, two images", err)
	st := ex.Stats()
	if st.DeadlineAborts != 2 || st.DeadlineMisses != 2 || st.TierFailures[serve.TierTuned] != 0 || st.TierServed[serve.TierFP32] != 0 {
		t.Fatalf("executor stats after two mid-graph aborts: %+v", st)
	}
	if h := ex.Health(); h.ConsecutiveFailures != 0 {
		t.Fatalf("budget exhaustion counted against the breaker: %+v", h)
	}

	p := newPool(t, nil) // round-robin: quorum never truncates a ballot
	_, err = p.DoBatchCtx(ctx, inputs[:1], 0)
	midGraph("pool, one image", err)
	_, err = p.DoBatchCtx(ctx, inputs[:2], 0)
	midGraph("pool, two images", err)
	if pst := p.Stats(); pst.DeadlineAborts != 2 || pst.ReplicaFails != 0 || pst.FP32Served != 0 {
		t.Fatalf("pool stats after two mid-graph aborts: %+v", pst)
	}
}
