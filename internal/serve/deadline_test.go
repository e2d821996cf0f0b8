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

// A request whose per-request deadline expires before any tier serves is
// abandoned with the typed error, never answered late and never an
// untyped string.
func TestDoDeadlineAbortsWithTypedError(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, stallPlan("dl-abort").New("nx"), nil)
	res, err := ex.DoCtx(rtctx.WithBudget(1e-6), inputs[0], 0)
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

// DoBatchCtx shares the abort contract.
func TestDoBatchDeadlineAbortsWithTypedError(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, stallPlan("dl-batch-abort").New("nx"), nil)
	_, err := ex.DoBatchCtx(rtctx.WithBudget(1e-6), inputs[:4], 0)
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("error %v is not serve.ErrDeadlineExceeded", err)
	}
	if got := ex.Stats().DeadlineAborts; got != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1", got)
	}
}

// With a generous per-request deadline on a pristine executor, the
// budgeted calls are bit-identical to the unbudgeted ones: same tier, same
// latency, same outputs, no misses, no error.
func TestDoDeadlinePristineMatchesDo(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, nil, nil)
	want, err := ex.DoCtx(nil, inputs[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.DoCtx(rtctx.WithBudget(10), inputs[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != want.Tier || got.LatencySec != want.LatencySec || got.DeadlineMiss {
		t.Fatalf("budgeted DoCtx %+v differs from unbudgeted %+v", got, want)
	}
	if !sameOutputs(got.Outputs, want.Outputs) {
		t.Fatal("budgeted DoCtx outputs differ from unbudgeted")
	}

	wb, err := ex.DoBatchCtx(nil, inputs[:3], 8)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := ex.DoBatchCtx(rtctx.WithBudget(10), inputs[:3], 8)
	if err != nil {
		t.Fatal(err)
	}
	if gb.LatencySec != wb.LatencySec || gb.Tier != wb.Tier || gb.DeadlineMiss {
		t.Fatalf("budgeted DoBatchCtx %+v differs from unbudgeted %+v", gb, wb)
	}
	for i := range wb.Outputs {
		if !sameOutputs(gb.Outputs[i], wb.Outputs[i]) {
			t.Fatalf("batch image %d outputs differ", i)
		}
	}
}

// The per-request budget clamps against the configured deadline: the
// tighter of the two governs. A configured 1µs deadline must abort even
// when the per-request budget is generous.
func TestDoDeadlineClampsAgainstConfig(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, stallPlan("dl-clamp").New("nx"), func(c *serve.Config) { c.DeadlineSec = 1e-6 })
	if _, err := ex.DoCtx(rtctx.WithBudget(10), inputs[0], 0); !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("config deadline did not clamp the request budget: err=%v", err)
	}
}

// A nil context keeps the answer-late contract even when the same
// scenario would abort a budgeted request: every request is answered, via FP32,
// with the miss recorded — never ErrDeadlineExceeded.
func TestDoStillAnswersLate(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, stallPlan("dl-late").New("nx"), func(c *serve.Config) { c.DeadlineSec = 1e-6 })
	res, err := ex.DoCtx(nil, inputs[0], 0)
	if err != nil {
		t.Fatalf("an unbudgeted request must not return deadline errors: %v", err)
	}
	if res.Tier != serve.TierFP32 || !res.DeadlineMiss || res.Outputs == nil {
		t.Fatalf("late request not answered by FP32 with a recorded miss: %+v", res)
	}
	if got := ex.Stats().DeadlineAborts; got != 0 {
		t.Fatalf("unbudgeted request counted %d deadline aborts", got)
	}
}

// A budget the expected launch schedule cannot meet stops a request at a
// layer boundary — for a single image exactly as for a batch, since it
// is a batch of one: the typed error, one abort counted per request, and
// nothing booked against an engine or replica that did not fault.
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
	_, err := ex.DoCtx(ctx, inputs[0], 0)
	midGraph("executor DoCtx", err)
	_, err = ex.DoBatchCtx(ctx, inputs[:1], 0)
	midGraph("executor DoBatchCtx", err)
	st := ex.Stats()
	if st.DeadlineAborts != 2 || st.DeadlineMisses != 2 || st.TierFailures[serve.TierTuned] != 0 || st.TierServed[serve.TierFP32] != 0 {
		t.Fatalf("executor stats after two mid-graph aborts: %+v", st)
	}
	if h := ex.Health(); h.ConsecutiveFailures != 0 {
		t.Fatalf("budget exhaustion counted against the breaker: %+v", h)
	}

	p := newPool(t, nil) // round-robin: quorum never truncates a ballot
	_, err = p.DoCtx(ctx, inputs[0], 0)
	midGraph("pool DoCtx", err)
	_, err = p.DoBatchCtx(ctx, inputs[:1], 0)
	midGraph("pool DoBatchCtx", err)
	if pst := p.Stats(); pst.DeadlineAborts != 2 || pst.ReplicaFails != 0 || pst.FP32Served != 0 {
		t.Fatalf("pool stats after two mid-graph aborts: %+v", pst)
	}
}
