package netserve

import (
	"net/http/httptest"
	"testing"
	"time"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// poolOfOneAllocs pins what a Pool of one costs per served batch behind
// the backend: resnet18, a batch of two, an aborting budget the schedule
// fits. The executor backend this replaced allocated 24 per batch, its
// guard pricing a fresh cost table and allocating its closure on every
// call; the Pool of one's result carries a per-image pointer slice and
// one block of per-image results, with its ballots on the stack, and
// arming the guard allocates nothing.
const poolOfOneAllocs = 23

func TestPoolOfOneBackendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	defer kernels.SetWorkers(kernels.SetWorkers(1))
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	pool, err := serve.NewPool(reg, serve.PoolConfig{Model: "resnet18", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	be := NewPoolBackend(pool)
	s := be.InputShape()
	xs := []*tensor.Tensor{tensor.New(s[0], s[1], s[2], s[3]), tensor.New(s[0], s[1], s[2], s[3])}
	spec := gpusim.XavierNX()
	dev := gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
	ctx := rtctx.WithBudget(pool.Engines()[0].ExpectedLatencySec(dev, false) * 10)
	run := 0
	serveOne := func() {
		ans, err := be.ServeBatch(ctx, xs, run)
		run++
		if err != nil || len(ans.Results) != len(xs) || ans.Results[0].Tier != "replica-0" {
			t.Fatalf("batch %d: %+v, %v", run, ans, err)
		}
	}
	for i := 0; i < 3; i++ { // create the execution contexts and the guard's cost table
		serveOne()
	}
	allocs := testing.AllocsPerRun(50, serveOne)
	if allocs > poolOfOneAllocs {
		t.Errorf("a Pool of one allocates %.1f objects per batch of two, pinned at %d", allocs, poolOfOneAllocs)
	}
	t.Logf("%.1f allocs per batch of two", allocs)
}

// --- parseDeadline clamping ---

func deadlineServer(def, max time.Duration) *Server {
	cfg := Config{DefaultDeadline: def, MaxDeadline: max}
	return &Server{cfg: cfg.withDefaults()}
}

func TestParseDeadlineDefaultsAndClamp(t *testing.T) {
	s := deadlineServer(100*time.Millisecond, 1*time.Second)

	// No header: the server default applies.
	r := httptest.NewRequest("POST", "/v1/models/m/infer", nil)
	d, err := s.parseDeadline(r)
	if err != nil || d != 100*time.Millisecond {
		t.Fatalf("no header: got %v, %v; want default 100ms", d, err)
	}

	// In-range header parses as-is.
	r.Header.Set("X-Deadline-Ms", "250")
	if d, err = s.parseDeadline(r); err != nil || d != 250*time.Millisecond {
		t.Fatalf("250ms header: got %v, %v", d, err)
	}

	// Over the server bound: clamped, not rejected — a greedy client
	// still gets served, just under the house rules.
	r.Header.Set("X-Deadline-Ms", "60000")
	if d, err = s.parseDeadline(r); err != nil || d != 1*time.Second {
		t.Fatalf("60s header: got %v, %v; want clamp to 1s", d, err)
	}

	// Exactly the bound is not an overrun.
	r.Header.Set("X-Deadline-Ms", "1000")
	if d, err = s.parseDeadline(r); err != nil || d != 1*time.Second {
		t.Fatalf("1000ms header: got %v, %v", d, err)
	}
}

func TestParseDeadlineRejectsGarbage(t *testing.T) {
	s := deadlineServer(0, 0) // defaults: 250ms / 5s
	for _, h := range []string{"0", "-5", "fast", "1.5"} {
		r := httptest.NewRequest("POST", "/v1/models/m/infer", nil)
		r.Header.Set("X-Deadline-Ms", h)
		if _, err := s.parseDeadline(r); err == nil {
			t.Errorf("header %q: want error, got nil", h)
		}
	}
}

// --- EDF queue discipline ---

// edfReq builds an un-admitted request due remSec from now.
func edfReq(remSec float64, band rtctx.Band) *request {
	now := time.Now()
	return &request{
		ctx: rtctx.Request{
			BudgetSec: remSec,
			Abort:     true,
			Band:      band,
			Arrival:   now,
			Deadline:  now.Add(time.Duration(remSec * float64(time.Second))),
		},
		resp: make(chan response, 1),
	}
}

func edfQueue(depth int, wcetSec float64) *modelQueue {
	return newModelQueue("m", nil, 4, time.Millisecond, depth, true, wcetSec)
}

func TestEDFAdmitOrdersByDeadline(t *testing.T) {
	q := edfQueue(8, 0)
	// Admit out of deadline order; the queue must hold earliest-first.
	rems := []float64{5, 1, 3, 2, 4}
	for _, rem := range rems {
		if resp := q.admit(edfReq(rem, rtctx.BandLow)); resp != nil {
			t.Fatalf("admit(%v) shed: %+v", rem, resp)
		}
	}
	var got []float64
	for {
		r := q.popLive()
		if r == nil {
			break
		}
		got = append(got, r.ctx.BudgetSec)
	}
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

func TestEDFDropLateEviction(t *testing.T) {
	q := edfQueue(2, 0)
	late := edfReq(10, rtctx.BandLow)
	if resp := q.admit(edfReq(5, rtctx.BandLow)); resp != nil {
		t.Fatal("first admit shed")
	}
	if resp := q.admit(late); resp != nil {
		t.Fatal("second admit shed")
	}

	// A less urgent newcomer sheds at the door: the queue is full and it
	// would sort last.
	if resp := q.admit(edfReq(20, rtctx.BandLow)); resp == nil {
		t.Fatal("late newcomer was admitted into a full queue")
	} else if er := resp.reply.(ErrReply); er.Reason != "queue-full" {
		t.Fatalf("late newcomer shed reason %q, want queue-full", er.Reason)
	}

	// A more urgent newcomer evicts the latest-deadline member.
	if resp := q.admit(edfReq(1, rtctx.BandLow)); resp != nil {
		t.Fatalf("urgent newcomer shed: %+v", resp)
	}
	select {
	case er := <-late.resp:
		if er.status != 503 || er.reply.(ErrReply).Reason != "evicted" {
			t.Fatalf("victim got %d/%+v, want 503 evicted", er.status, er.reply)
		}
		if !er.retryAfter {
			t.Fatal("eviction shed without Retry-After")
		}
	default:
		t.Fatal("latest-deadline member was not evicted")
	}

	q.mu.Lock()
	evs, edfEvs, shed := q.stats.Evicted, q.stats.EDFEvictions, q.stats.Shed
	q.mu.Unlock()
	if evs != 1 || edfEvs != 1 {
		t.Fatalf("Evicted=%d EDFEvictions=%d, want 1/1", evs, edfEvs)
	}
	if shed != 2 { // the queue-full shed + the eviction
		t.Fatalf("Shed=%d, want 2", shed)
	}

	// Survivors drain earliest-first: 1s then 5s.
	if r := q.popLive(); r == nil || r.ctx.BudgetSec != 1 {
		t.Fatalf("first survivor %+v, want the 1s request", r)
	}
	if r := q.popLive(); r == nil || r.ctx.BudgetSec != 5 {
		t.Fatalf("second survivor %+v, want the 5s request", r)
	}
}

func TestEDFBandBreaksDeadlineTies(t *testing.T) {
	q := edfQueue(8, 0)
	now := time.Now()
	dl := now.Add(time.Second)
	mk := func(band rtctx.Band) *request {
		return &request{
			ctx:  rtctx.Request{BudgetSec: 1, Abort: true, Band: band, Arrival: now, Deadline: dl},
			resp: make(chan response, 1),
		}
	}
	lo, hi := mk(rtctx.BandLow), mk(rtctx.BandHigh)
	if resp := q.admit(lo); resp != nil {
		t.Fatal("low admit shed")
	}
	if resp := q.admit(hi); resp != nil {
		t.Fatal("high admit shed")
	}
	if r := q.popLive(); r != hi {
		t.Fatal("equal deadlines: high band should pop first")
	}
}

// --- WCET admission ---

func TestWCETAdmissionShedsHopelessBudgets(t *testing.T) {
	q := edfQueue(8, 0.050) // certified bound: 50ms simulated

	hopeless := edfReq(0.020, rtctx.BandHigh) // 20ms budget < 50ms bound
	resp := q.admit(hopeless)
	if resp == nil {
		t.Fatal("hopeless budget was admitted past WCET gate")
	}
	if resp.status != 503 || !resp.retryAfter {
		t.Fatalf("WCET shed was %d retryAfter=%v, want 503 with Retry-After", resp.status, resp.retryAfter)
	}
	if er := resp.reply.(ErrReply); er.Reason != "wcet" {
		t.Fatalf("WCET shed reason %q, want wcet", er.Reason)
	}

	// A meetable budget passes the gate.
	if resp := q.admit(edfReq(0.200, rtctx.BandLow)); resp != nil {
		t.Fatalf("meetable budget shed: %+v", resp)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stats.WCETShed != 1 {
		t.Fatalf("WCETShed=%d, want 1", q.stats.WCETShed)
	}
	if q.stats.ShedHigh != 1 {
		t.Fatalf("ShedHigh=%d, want 1 (the hopeless request was high band)", q.stats.ShedHigh)
	}
	if q.stats.Accepted != 1 {
		t.Fatalf("Accepted=%d, want 1", q.stats.Accepted)
	}
}

func TestWCETGateAppliesToFIFOToo(t *testing.T) {
	q := newModelQueue("m", nil, 4, time.Millisecond, 8, false, 0.050)
	if resp := q.admit(edfReq(0.010, rtctx.BandLow)); resp == nil {
		t.Fatal("FIFO mode: hopeless budget admitted past WCET gate")
	} else if er := resp.reply.(ErrReply); er.Reason != "wcet" {
		t.Fatalf("FIFO WCET shed reason %q, want wcet", er.Reason)
	}
}

// --- batchCtx derivation ---

func TestBatchCtxTightestDeadlineWins(t *testing.T) {
	start := time.Now()
	mk := func(remSec float64, band rtctx.Band, tenant string) *request {
		return &request{ctx: rtctx.Request{
			BudgetSec: remSec, Abort: true, Band: band, Tenant: tenant,
			Arrival: start, Deadline: start.Add(time.Duration(remSec * float64(time.Second))),
		}}
	}
	batch := []*request{
		mk(0.500, rtctx.BandLow, "a"),
		mk(0.050, rtctx.BandHigh, "a"),
		mk(0.200, rtctx.BandLow, "a"),
	}
	b := batchCtx(batch, start)
	if !b.Aborts() {
		t.Fatal("batch context must abort")
	}
	if b.BudgetSec < 0.049 || b.BudgetSec > 0.051 {
		t.Fatalf("budget %v, want ~0.050 (tightest member)", b.BudgetSec)
	}
	if !b.Deadline.Equal(batch[1].ctx.Deadline) {
		t.Fatal("deadline should be the tightest member's")
	}
	if b.Band != rtctx.BandHigh {
		t.Fatal("one high member makes the batch high")
	}
	if b.Tenant != "a" {
		t.Fatalf("uniform tenant lost: %q", b.Tenant)
	}
}

func TestBatchCtxMixedTenantAndExpiredFloor(t *testing.T) {
	start := time.Now()
	past := start.Add(-time.Second)
	batch := []*request{
		{ctx: rtctx.Request{BudgetSec: 1, Abort: true, Tenant: "a", Arrival: past, Deadline: start.Add(-time.Millisecond)}},
		{ctx: rtctx.Request{BudgetSec: 1, Abort: true, Tenant: "b", Arrival: past, Deadline: start.Add(time.Second)}},
	}
	b := batchCtx(batch, start)
	if b.Tenant != "" {
		t.Fatalf("mixed tenants must clear the batch tenant, got %q", b.Tenant)
	}
	// One member's deadline slipped past between pop and serve: the batch
	// still gets a positive hair of budget, not a guaranteed abort.
	if b.BudgetSec <= 0 {
		t.Fatalf("budget %v, want the positive floor", b.BudgetSec)
	}
	if b.BudgetSec > 1e-5 {
		t.Fatalf("budget %v, want the tiny floor, not a real budget", b.BudgetSec)
	}
}

// tiedReq builds requests sharing one exact (deadline, band, arrival)
// triple, so rtctx.EarlierThan cannot order them and only the admission
// sequence can.
func tiedReq(now time.Time, remSec float64) *request {
	return &request{
		ctx: rtctx.Request{
			BudgetSec: remSec,
			Abort:     true,
			Band:      rtctx.BandLow,
			Arrival:   now,
			Deadline:  now.Add(time.Duration(remSec * float64(time.Second))),
		},
		resp: make(chan response, 1),
	}
}

func TestEDFTiesServeInAdmissionOrder(t *testing.T) {
	q := edfQueue(8, 0)
	now := time.Now()
	var admitted []*request
	for i := 0; i < 5; i++ {
		r := tiedReq(now, 1)
		if resp := q.admit(r); resp != nil {
			t.Fatalf("admit %d shed: %+v", i, resp)
		}
		admitted = append(admitted, r)
	}
	for i, want := range admitted {
		got := q.popLive()
		if got != want {
			t.Fatalf("tied requests served out of admission order at %d", i)
		}
	}
}

func TestEDFEvictionTieBreakIsDeterministic(t *testing.T) {
	q := edfQueue(3, 0)
	now := time.Now()
	// Three requests with byte-identical deadline keys fill the queue.
	tied := make([]*request, 3)
	for i := range tied {
		tied[i] = tiedReq(now, 1)
		if resp := q.admit(tied[i]); resp != nil {
			t.Fatalf("admit %d shed: %+v", i, resp)
		}
	}
	// A strictly more urgent newcomer must evict exactly the LAST-
	// ADMITTED member of the tie — the unique edfBefore maximum — not
	// whichever equal element a sort happened to leave at the tail.
	urgent := tiedReq(now, 0.001)
	if resp := q.admit(urgent); resp != nil {
		t.Fatalf("urgent newcomer shed: %+v", resp)
	}
	select {
	case er := <-tied[2].resp:
		if er.status != 503 || er.reply.(ErrReply).Reason != "evicted" {
			t.Fatalf("victim got %+v, want 503 evicted", er)
		}
	default:
		t.Fatal("last-admitted tied request was not the eviction victim")
	}
	for i, want := range []*request{urgent, tied[0], tied[1]} {
		if got := q.popLive(); got != want {
			t.Fatalf("post-eviction order wrong at %d", i)
		}
	}
	// A newcomer that only TIES the tail is shed, never swapped in:
	// its admission sequence makes it the latest of the equals.
	q2 := edfQueue(1, 0)
	first := tiedReq(now, 1)
	if resp := q2.admit(first); resp != nil {
		t.Fatalf("first shed: %+v", resp)
	}
	if resp := q2.admit(tiedReq(now, 1)); resp == nil {
		t.Fatal("tying newcomer admitted into a full queue")
	} else if er := resp.reply.(ErrReply); er.Reason != "queue-full" {
		t.Fatalf("tying newcomer shed reason %q, want queue-full", er.Reason)
	}
	if got := q2.popLive(); got != first {
		t.Fatal("queued request displaced by a tying newcomer")
	}
}

// TestAdmitGateOrderInvariant pins the documented admission gate order:
// draining, then WCET, then full-queue.
func TestAdmitGateOrderInvariant(t *testing.T) {
	// Draining beats WCET: a hopeless budget on a draining queue sheds
	// as "draining", not "wcet".
	q := edfQueue(4, 0.5)
	q.beginDrain()
	resp := q.admit(edfReq(0.001, rtctx.BandHigh))
	if resp == nil {
		t.Fatal("draining queue admitted a request")
	}
	if er := resp.reply.(ErrReply); er.Reason != "draining" {
		t.Fatalf("draining+hopeless shed reason %q, want draining", er.Reason)
	}
	if q.stats.WCETShed != 0 {
		t.Fatalf("draining shed counted as WCET: %d", q.stats.WCETShed)
	}

	// WCET beats full-queue: a hopeless budget against a full queue
	// sheds as "wcet" without evicting the feasible occupant, even
	// though its deadline is more urgent.
	q2 := edfQueue(1, 0.5)
	occupant := edfReq(2.0, rtctx.BandLow)
	if r := q2.admit(occupant); r != nil {
		t.Fatalf("feasible occupant shed: %+v", r)
	}
	resp = q2.admit(edfReq(0.1, rtctx.BandHigh))
	if resp == nil {
		t.Fatal("hopeless newcomer admitted")
	}
	if er := resp.reply.(ErrReply); er.Reason != "wcet" {
		t.Fatalf("hopeless-vs-full shed reason %q, want wcet", er.Reason)
	}
	if q2.stats.EDFEvictions != 0 {
		t.Fatalf("hopeless request evicted a feasible one: %d evictions", q2.stats.EDFEvictions)
	}
	if got := q2.popLive(); got != occupant {
		t.Fatal("feasible occupant missing after hopeless admit attempt")
	}
}

// A header too large for a Duration in nanoseconds used to overflow into
// a negative budget — a deadline before the arrival — instead of
// clamping: every accepted value must land in (0, MaxDeadline].
func TestParseDeadlineClampsBeforeConverting(t *testing.T) {
	s := deadlineServer(0, 0) // defaults: 250ms / 5s
	max := s.cfg.MaxDeadline
	for _, tc := range []struct {
		header string
		want   time.Duration // 0: rejected
	}{
		{"1", time.Millisecond},
		{"5000", max},
		{"5001", max},
		{"9223372036854", max}, // the largest ms count whose product still fits
		{"9223372036855", max}, // the smallest that wraps negative
		{"9223372036854775807", max},
		{"9223372036854775808", 0}, // not an int
	} {
		r := httptest.NewRequest("POST", "/v1/models/m/infer", nil)
		r.Header.Set("X-Deadline-Ms", tc.header)
		d, err := s.parseDeadline(r)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("header %s: accepted as %v, want an error", tc.header, d)
		case tc.want != 0 && (err != nil || d != tc.want || d <= 0 || d > max):
			t.Errorf("header %s: got %v, %v; want %v", tc.header, d, err, tc.want)
		}
	}
}
