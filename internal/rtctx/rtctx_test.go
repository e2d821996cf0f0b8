package rtctx

import (
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Request
	if r.Overran(1) {
		t.Fatal("nil Overran = true")
	}
	if r.Aborts() {
		t.Fatal("nil Aborts = true")
	}
	if r.HasDeadline() {
		t.Fatal("nil HasDeadline = true")
	}
	if r.Expired(time.Now()) {
		t.Fatal("nil Expired = true")
	}
	if r.RemainingSec(time.Now()) != 0 {
		t.Fatal("nil RemainingSec != 0")
	}
}

func TestConstructors(t *testing.T) {
	if b := Background(); b.Aborts() || b.BudgetSec != 0 {
		t.Fatalf("Background = %+v, want no budget, no abort", b)
	}
	w := WithBudget(0.25)
	if !w.Aborts() || w.BudgetSec != 0.25 {
		t.Fatalf("WithBudget = %+v, want budget 0.25, aborting", w)
	}
	if WithBudget(0).Aborts() {
		t.Fatal("WithBudget(0) aborts: zero budget must mean unbounded")
	}
}

func TestExpiredAndRemaining(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	r := &Request{Arrival: t0, Deadline: t0.Add(100 * time.Millisecond)}
	if r.Expired(t0) {
		t.Fatal("expired at arrival")
	}
	if r.Expired(r.Deadline) {
		t.Fatal("expired exactly at deadline (must be strictly after)")
	}
	if !r.Expired(r.Deadline.Add(time.Nanosecond)) {
		t.Fatal("not expired past deadline")
	}
	if got := r.RemainingSec(t0); got != 0.1 {
		t.Fatalf("RemainingSec at arrival = %v, want 0.1", got)
	}
	if got := r.RemainingSec(t0.Add(200 * time.Millisecond)); got >= 0 {
		t.Fatalf("RemainingSec past deadline = %v, want negative", got)
	}
}

func TestBandString(t *testing.T) {
	if BandLow.String() != "low" || BandHigh.String() != "high" {
		t.Fatalf("band strings: low=%q high=%q", BandLow, BandHigh)
	}
}

func TestEarlierThanOrdering(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	mk := func(deadlineMs int, b Band, arriveMs int) *Request {
		r := &Request{Band: b, Arrival: t0.Add(time.Duration(arriveMs) * time.Millisecond)}
		if deadlineMs > 0 {
			r.Deadline = t0.Add(time.Duration(deadlineMs) * time.Millisecond)
		}
		return r
	}

	early, late := mk(10, BandLow, 0), mk(20, BandHigh, 0)
	if !early.EarlierThan(late) || late.EarlierThan(early) {
		t.Fatal("earlier deadline must win regardless of band")
	}

	hi, lo := mk(10, BandHigh, 5), mk(10, BandLow, 0)
	if !hi.EarlierThan(lo) || lo.EarlierThan(hi) {
		t.Fatal("equal deadlines: high band must win")
	}

	a, b := mk(10, BandLow, 1), mk(10, BandLow, 2)
	if !a.EarlierThan(b) || b.EarlierThan(a) {
		t.Fatal("equal deadline+band: earlier arrival must win")
	}

	withD, without := mk(10, BandLow, 0), mk(0, BandHigh, 0)
	if !withD.EarlierThan(without) || without.EarlierThan(withD) {
		t.Fatal("a deadline must sort ahead of none")
	}

	// Ordering is a strict weak order: a request is never earlier than
	// itself.
	if a.EarlierThan(a) {
		t.Fatal("request earlier than itself")
	}
}

// Overran is the one deadline verdict: strictly past a positive budget.
func TestOverran(t *testing.T) {
	cases := []struct {
		name string
		r    *Request
		sec  float64
		want bool
	}{
		{"nil", nil, 1, false},
		{"zero budget", &Request{}, 1, false},
		{"zero budget, aborting", &Request{Abort: true}, 1, false},
		{"below", WithBudget(0.25), 0.125, false},
		{"equal", WithBudget(0.25), 0.25, false},
		{"above", WithBudget(0.25), 0.375, true},
		{"above, recording only", &Request{BudgetSec: 0.25}, 0.375, true},
	}
	for _, c := range cases {
		if got := c.r.Overran(c.sec); got != c.want {
			t.Errorf("%s: Overran(%v) = %v, want %v", c.name, c.sec, got, c.want)
		}
	}
}
