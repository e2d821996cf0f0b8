// Package rtctx defines the first-class request context threaded
// through every serving layer: netserve's HTTP handler stamps one
// Request per arrival, the queue orders and sheds by it, the batcher
// derives a batch context from its members, serve.Pool accounts against
// its budget, and core.Engine.InferBatchCtx consults it at layer
// boundaries to abort a hopeless batch mid-graph.
//
// The package is a leaf — it imports only time — so every
// layer can depend on it without cycles. A nil *Request means "no
// real-time context": every accessor is nil-safe and reads as the zero
// value, so callers without a deadline simply pass nil.
package rtctx

import "time"

// Band is the request's priority band. The zero value is BandLow, so
// an unstamped request is low priority.
type Band int

const (
	// BandLow is best-effort traffic: first to be shed under pressure.
	BandLow Band = iota
	// BandHigh is latency-critical traffic: admitted ahead of low and
	// kept when the queue must evict.
	BandHigh
)

// String implements fmt.Stringer.
func (b Band) String() string {
	if b == BandHigh {
		return "high"
	}
	return "low"
}

// Request is one inference request's real-time context. It is a plain
// value bag, not a cancellation tree: the serving stack is
// deterministic simulated time, so the budget is data to account
// against, not a channel to select on.
type Request struct {
	// BudgetSec is the request's latency budget in simulated seconds
	// (netserve conflates wall-clock header budgets with simulated
	// budgets; see DESIGN). Zero means unbounded.
	BudgetSec float64
	// Abort arms the abandon paths: when the budget expires before any
	// tier has answered — or a layer-boundary check proves it must —
	// the request errors with serve.ErrDeadlineExceeded instead of
	// answering late. With Abort false the budget only records misses.
	Abort bool
	// Band is the admission priority band.
	Band Band
	// Tenant identifies the submitting tenant (X-Tenant header);
	// empty for anonymous traffic.
	Tenant string
	// Arrival is when the request entered the system (wall clock).
	Arrival time.Time
	// Deadline is the wall-clock instant the client stops caring:
	// Arrival plus the wall-clock budget. The EDF queue orders by it.
	Deadline time.Time
}

// Background returns a context with no budget and no abort: the
// explicit spelling of "serve this whenever".
func Background() *Request { return &Request{} }

// WithBudget returns a budget-carrying context that aborts on expiry:
// the one-call spelling of a per-request deadline at the API edge.
func WithBudget(sec float64) *Request {
	return &Request{BudgetSec: sec, Abort: true}
}

// Aborts reports whether the abandon paths are armed: a non-nil
// context with a positive budget and Abort set.
func (r *Request) Aborts() bool {
	return r != nil && r.Abort && r.BudgetSec > 0
}

// Overran reports whether sec of simulated latency overran the budget:
// a positive budget and sec strictly past it. Latency equal to the
// budget is on time, and an unbounded context never overruns. It is the
// one deadline verdict of the serving stack: misses, abandons, the
// layer-boundary guard and WCET admission all ask it.
func (r *Request) Overran(sec float64) bool {
	return r != nil && r.BudgetSec > 0 && sec > r.BudgetSec
}

// Expired reports whether the wall-clock deadline has passed at now.
// A context without a deadline never expires.
func (r *Request) Expired(now time.Time) bool {
	return r != nil && !r.Deadline.IsZero() && now.After(r.Deadline)
}

// RemainingSec is the wall-clock budget left at now, negative once
// expired. Without a deadline it reports 0, which is not "no time
// left": callers must check HasDeadline.
func (r *Request) RemainingSec(now time.Time) float64 {
	if r == nil || r.Deadline.IsZero() {
		return 0
	}
	return r.Deadline.Sub(now).Seconds()
}

// HasDeadline reports whether a wall-clock deadline was stamped.
func (r *Request) HasDeadline() bool {
	return r != nil && !r.Deadline.IsZero()
}

// EarlierThan orders requests for EDF dispatch: earlier deadline
// first; equal deadlines break by band (high first), then by earlier
// arrival, so the order is total and deterministic for any admission
// sequence. Deadline-less requests sort last.
func (r *Request) EarlierThan(o *Request) bool {
	rd, od := r.HasDeadline(), o.HasDeadline()
	if rd != od {
		return rd // a deadline sorts ahead of none
	}
	if rd && !r.Deadline.Equal(o.Deadline) {
		return r.Deadline.Before(o.Deadline)
	}
	if r.band() != o.band() {
		return r.band() == BandHigh
	}
	return r.arrival().Before(o.arrival())
}

func (r *Request) band() Band {
	if r == nil {
		return BandLow
	}
	return r.Band
}

func (r *Request) arrival() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.Arrival
}
