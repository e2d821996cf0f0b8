//go:build goexperiment.synctest

// The serving soak on a virtual clock: an open-loop overload run of the
// front end over a real resnet18 Pool of one, inside a testing/synctest
// bubble, so every arrival, batch window, paced service time, client
// disconnect and deadline falls on a simulated instant and the outcome of
// each discipline is pinned exactly instead of gated loosely. Run it with
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 go test -run TestVirtualSoak -v ./internal/netserve
//
// (-short runs 1 000 arrivals per row instead of 10 000). A third row
// replays the FIFO scenario with a tenant on every arrival and a Drain
// at a seeded instant in its middle. The build tag keeps it out of a
// plain go test.
package netserve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"edgeinfer/internal/faults"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// The scenario: 2 000 arrivals/s against a capacity of 1 000/s (batches
// of 4 at 4 ms each), every 20th tick a burst of 4, 5% slow uploads, 2%
// clients that hang up at half their budget, 20% high priority, a
// 250/500/750 ms deadline ladder, and every 4th request a tight budget
// at half the deployment's WCET bound.
const (
	soakModel    = "resnet18"
	soakRate     = 2000
	soakMaxBatch = 4
	soakWindow   = 2 * time.Millisecond
	soakDepth    = 64
	soakService  = 4 * time.Millisecond
	soakDeadline = 250 * time.Millisecond
)

// soakPins are each row's exact outcome, captured once and
// expected of every later run: client-side counts by status, deadline
// misses (504s plus 200s flagged late), the server's eviction and shed
// counters, and a digest of every arrival's fate and every batch's
// membership.
var soakPins = map[string]string{
	"fifo":           "200=4331 503=4651 504=993 gone=25 miss=0.1346 evicted=917 edf_evictions=0 wcet_shed=0 batches=1099 max_depth=64 digest=0726e98376109862",
	"edf+wcet":       "200=4412 503=5588 504=0 gone=0 miss=0.0000 evicted=1680 edf_evictions=1680 wcet_shed=2500 batches=1103 max_depth=64 digest=420746a1042ff7ac",
	"fifo/short":     "200=479 503=413 504=106 gone=2 miss=0.1440 evicted=78 edf_evictions=0 wcet_shed=0 batches=121 max_depth=64 digest=e385e1cb80301d12",
	"edf+wcet/short": "200=498 503=502 504=0 gone=0 miss=0.0000 evicted=151 edf_evictions=151 wcet_shed=250 batches=125 max_depth=64 digest=166a940ffa70bfd2",

	// The FIFO scenario with a tenant on every arrival and a mid-run Drain.
	"fifo+drain":       "200=2665 503=6705 504=616 gone=14 miss=0.0835 evicted=563 edf_evictions=0 wcet_shed=0 batches=679 max_depth=64 digest=426c141ae7ffe337",
	"fifo+drain/short": "200=306 503=621 504=71 gone=2 miss=0.0930 evicted=39 edf_evictions=0 wcet_shed=0 batches=78 max_depth=64 digest=a7933bdc39b16504",
}

func TestVirtualSoak(t *testing.T) {
	n := 10000
	suffix := ""
	if testing.Short() {
		n, suffix = 1000, "/short"
	}
	// Kernel helpers live outside the bubble; with one worker every
	// kernel runs inline on the calling (bubbled) goroutine.
	defer kernels.SetWorkers(kernels.SetWorkers(1))

	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	eng, err := reg.ProxyEngine(soakModel)
	if err != nil {
		t.Fatal(err)
	}
	simWCET, err := reg.WCETBound(soakModel, 12, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The deployment's worst case covers the paced service time and the
	// batch window as well; a tight request gets half of it.
	wcetSec := simWCET + soakService.Seconds() + soakWindow.Seconds()
	tight := time.Duration(max(1, int(wcetSec*1e3/2))) * time.Millisecond
	sc := soakScenario{reg: reg, shape: eng.Graph.InputShape, wcetSec: wcetSec, tight: tight, n: n}

	for _, row := range []soakRow{
		{name: "fifo"},
		{name: "edf+wcet", edf: true},
		{name: "fifo+drain", drain: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			first := sc.run(row)
			for _, v := range first.violations {
				t.Error(v)
			}
			if again := sc.run(row); again.line != first.line {
				t.Errorf("same seed, different outcome:\n  %s\n  %s", first.line, again.line)
			}
			t.Logf("%s: %s", row.name, first.line)
			if want := soakPins[row.name+suffix]; first.line != want {
				t.Errorf("outcome moved:\n  got  %s\n  want %s", first.line, want)
			}
		})
	}
}

// soakRow is one pinned variant of the scenario: the queue discipline
// (edf also arms WCET admission), and whether the server drains mid-run
// while every arrival carries its own X-Tenant.
type soakRow struct {
	name  string
	edf   bool
	drain bool
}

type soakScenario struct {
	reg     *serve.Registry
	shape   [4]int
	wcetSec float64
	tight   time.Duration
	n       int
}

type soakResult struct {
	line       string
	violations []string
}

// soakArrival is one request as its client saw it.
type soakArrival struct {
	high, gone bool // gone: drawn to hang up at half its budget
	tenant     string
	budget     time.Duration
	arrival    time.Time // when the server finished reading the body
	done       time.Time
	answered   bool // the handler wrote a reply (a hang-up leaves none)
	status     int
	retry      bool
	reason     string
	echo       string // the tenant a 200 reply names
	miss       bool
}

func (a *soakArrival) ctx() *rtctx.Request {
	band := rtctx.BandLow
	if a.high {
		band = rtctx.BandHigh
	}
	return &rtctx.Request{Band: band, Arrival: a.arrival, Deadline: a.arrival.Add(a.budget)}
}

// pacedBackend gives the real Pool of one a fixed virtual service time per
// batch and records who each batch served (Data[0] carries the arrival
// index) and when it started.
type pacedBackend struct {
	netserve.Backend
	mu      sync.Mutex
	batches []soakBatch
}

type soakBatch struct {
	at      time.Time
	members []int
}

func (b *pacedBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*netserve.BatchAnswer, error) {
	sb := soakBatch{at: time.Now()}
	for _, x := range xs {
		sb.members = append(sb.members, int(x.Data[0]))
	}
	b.mu.Lock()
	b.batches = append(b.batches, sb)
	b.mu.Unlock()
	time.Sleep(soakService)
	return b.Backend.ServeBatch(ctx, xs, runIndex)
}

// stampReader records the instant the body's end is read: the handler
// stamps the request's arrival at that same virtual instant.
type stampReader struct {
	r  io.Reader
	at *time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF && s.at.IsZero() {
		*s.at = time.Now()
	}
	return n, err
}

// run plays the scenario once inside a fresh bubble. Results leave the
// bubble through a channel only.
func (sc soakScenario) run(row soakRow) soakResult {
	out := make(chan soakResult, 1)
	synctest.Run(func() { out <- sc.play(row) })
	return <-out
}

func (sc soakScenario) play(row soakRow) soakResult {
	pool, err := serve.NewPool(sc.reg, serve.PoolConfig{Model: soakModel, Replicas: 1})
	if err != nil {
		return soakResult{violations: []string{err.Error()}}
	}
	be := &pacedBackend{Backend: netserve.NewPoolBackend(pool)}
	srv, err := netserve.New(netserve.Config{
		Models:          []netserve.ModelConfig{{Name: soakModel, Backend: be, WCETSec: sc.wcetSec}},
		MaxBatch:        soakMaxBatch,
		BatchWindow:     soakWindow,
		QueueDepth:      soakDepth,
		DefaultDeadline: soakDeadline,
		EDF:             row.edf,
		WCETAdmission:   row.edf,
	})
	if err != nil {
		return soakResult{violations: []string{err.Error()}}
	}
	inj := faults.NetPlan{
		Seed:           "soak",
		SlowClientRate: 0.05,
		SlowChunkBytes: 512,
		SlowChunkDelay: 200 * time.Microsecond,
		DisconnectRate: 0.02,
		BurstEvery:     20,
		BurstFactor:    4,
	}.NewNet(soakModel)
	// Arrival instants are jittered by up to half a slot, in nanoseconds:
	// on the bare 500 µs grid they would coincide with window and service
	// timers, and same-instant wakeups run in no fixed order.
	jitter := fixrand.NewKeyed("netserve/soak/jitter")
	interval := time.Second / soakRate

	// A raw body whose first element is the arrival index.
	elems := sc.shape[0] * sc.shape[1] * sc.shape[2] * sc.shape[3]
	prefix := fmt.Sprintf(`{"shape":[%d,%d,%d,%d],"data":[`, sc.shape[0], sc.shape[1], sc.shape[2], sc.shape[3])
	rest := strings.Repeat(",0", elems-1) + "]}"

	h := srv.Handler()
	arr := make([]soakArrival, sc.n)
	var wg sync.WaitGroup
	start := time.Now()

	// The drain row drains at a seeded tick in the middle half of the
	// run, three quarters into its slot: arrivals land in the first half
	// of a slot, so none shares the drain's instant.
	var dr soakDrain
	drained := make(chan error, 1)
	if row.drain {
		ticks := sc.n * 20 / 23 // every 20th tick is a burst of 4
		tick := ticks/4 + fixrand.NewKeyed("netserve/soak/drain").Intn(ticks/2)
		dr.at = start.Add(time.Duration(tick)*interval + 3*interval/4)
	}
	for tick, i := 1, 0; i < sc.n; tick++ {
		slot := start.Add(time.Duration(tick)*interval + time.Duration(jitter.Intn(int(interval/2))))
		if row.drain && !dr.started && slot.After(dr.at) {
			time.Sleep(time.Until(dr.at))
			dr.started = true
			go func() {
				err := srv.Drain(context.Background())
				dr.done = time.Now()
				drained <- err
			}()
			// Let the drain close admission before the next arrival.
			synctest.Wait()
		}
		for j, burst := 0, inj.Burst(tick); j < burst && i < sc.n; j, i = j+1, i+1 {
			// A burst's members land a nanosecond apart: two slow uploads
			// started on one instant would finish on one instant too.
			time.Sleep(time.Until(slot.Add(time.Duration(j))))
			a := &arr[i]
			chunk, delay, slow := inj.SlowClient()
			a.gone = inj.Disconnect()
			a.high = i%5 == 0
			if row.drain {
				a.tenant = "t" + strconv.Itoa(i)
			}
			a.budget = soakDeadline * time.Duration(1+i%3)
			if i%4 == 0 {
				a.budget = sc.tight
			}
			var body io.Reader = strings.NewReader(prefix + strconv.Itoa(i) + rest)
			if slow {
				body = faults.Throttle(body, chunk, delay)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				fire(h, a, &stampReader{r: body, at: &a.arrival})
			}()
			// Let the arrival reach admission (or its slow upload) before
			// the next one starts: admission order is schedule order.
			synctest.Wait()
		}
	}
	wg.Wait()
	if dr.started {
		if err := <-drained; err != nil {
			return soakResult{violations: []string{err.Error()}}
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		return soakResult{violations: []string{err.Error()}}
	}
	st := srv.Stats()
	return judge(row, arr, be.batches, st, dr)
}

// soakDrain is the drain row's mid-run Drain: the instant it was called
// and the instant it returned.
type soakDrain struct {
	at, done time.Time
	started  bool
}

// fire sends one request through the handler in-process and records
// what came back.
func fire(h http.Handler, a *soakArrival, body io.Reader) {
	ctx := context.Background()
	if a.gone {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.budget/2)
		defer cancel()
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+soakModel+"/infer", body).WithContext(ctx)
	req.Header.Set("X-Deadline-Ms", strconv.Itoa(int(a.budget/time.Millisecond)))
	if a.high {
		req.Header.Set("X-Priority", "high")
	}
	if a.tenant != "" {
		req.Header.Set("X-Tenant", a.tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	a.done = time.Now()
	if rec.Body.Len() == 0 {
		return // hung up before the answer: the handler wrote nothing
	}
	a.answered, a.status = true, rec.Code
	a.retry = rec.Header().Get("Retry-After") != ""
	dec := json.NewDecoder(rec.Body)
	var rep struct {
		netserve.InferReply
		Reason string `json:"reason"`
	}
	if err := dec.Decode(&rep); err != nil || dec.More() {
		a.reason = "unparseable reply"
		return
	}
	a.reason, a.echo, a.miss = rep.Reason, rep.Tenant, rep.DeadlineMiss
}

// judge checks the soak's invariants and condenses the outcome into the
// pinned line. Under a mid-run drain, every arrival after the drain
// instant is shed 503 "draining", and every request that arrived before
// it is answered no later than Drain returns (or hung up on).
func judge(row soakRow, arr []soakArrival, batches []soakBatch, st netserve.ServerStats, dr soakDrain) soakResult {
	edf := row.edf
	var res soakResult
	fail := func(format string, args ...any) {
		if len(res.violations) < 8 {
			res.violations = append(res.violations, fmt.Sprintf(format, args...))
		}
	}
	ms := st.Models[soakModel]
	digest := fnv.New64a()
	var ok, shed, expired, gone, misses, late int
	for i := range arr {
		a := &arr[i]
		fmt.Fprintf(digest, "%d %d %s %v %d;", i, a.status, a.reason, a.miss, a.done.UnixNano())
		if dr.started {
			after := a.arrival.After(dr.at)
			if after {
				late++
			}
			switch {
			case after && (a.status != http.StatusServiceUnavailable || a.reason != "draining"):
				fail("arrival %d after the drain: status %d %q, want 503 draining", i, a.status, a.reason)
			case !after && a.reason == "draining":
				fail("arrival %d before the drain was shed as draining", i)
			case !after && a.answered && a.done.After(dr.done):
				fail("arrival %d before the drain was answered after Drain returned", i)
			}
		}
		switch {
		case !a.answered:
			gone++
			if !a.gone {
				fail("arrival %d: no reply, and its client never hung up", i)
			}
		case a.reason == "unparseable reply":
			fail("arrival %d: reply is not exactly one JSON body", i)
		case a.status == http.StatusOK:
			ok++
			if a.miss {
				misses++
			}
			if a.done.After(a.arrival.Add(a.budget)) && !a.miss {
				fail("arrival %d: answered 200 after its deadline without a miss flag", i)
			}
			if a.echo != a.tenant {
				fail("arrival %d: 200 names tenant %q, want %q", i, a.echo, a.tenant)
			}
		case a.status == http.StatusServiceUnavailable:
			shed++
			if !a.retry {
				fail("arrival %d: 503 %s without Retry-After", i, a.reason)
			}
		case a.status == http.StatusGatewayTimeout:
			expired++
			misses++
		default:
			fail("arrival %d: status %d outside {200, 503, 504}", i, a.status)
		}
	}
	if row.drain && (late == 0 || late == len(arr)) {
		fail("drain at %v split the %d arrivals %d/%d: not mid-run", dr.at, len(arr), len(arr)-late, late)
	}
	if ms.MaxQueueDepth > soakDepth {
		fail("queue depth %d exceeded its bound %d", ms.MaxQueueDepth, soakDepth)
	}
	if !st.Draining || ms.QueueDepth != 0 {
		fail("drain left draining=%v depth=%d", st.Draining, ms.QueueDepth)
	}
	if edf && ms.WCETShed == 0 {
		fail("WCET admission never shed a tight request")
	}

	// Ordering. Batch k's members were popped no earlier than batch k-1's
	// service ended, so a request admitted before that instant and served
	// in a later batch was live and waiting the whole time batch k formed:
	// it must not sort ahead of any of batch k's members.
	servedIn := make([]int, len(arr))
	for i := range servedIn {
		servedIn[i] = -1
	}
	for k, b := range batches {
		fmt.Fprintf(digest, "b%d %d %v;", k, b.at.UnixNano(), b.members)
		for _, i := range b.members {
			servedIn[i] = k
		}
	}
	jumps := func(w, r *soakArrival) bool {
		if edf {
			return w.ctx().EarlierThan(r.ctx())
		}
		return w.high && !r.high
	}
	for w := range arr {
		j := servedIn[w]
		if j < 0 {
			continue
		}
		k0 := sort.Search(j, func(k int) bool {
			return k > 0 && batches[k-1].at.Add(soakService).After(arr[w].arrival)
		})
		for k := k0; k < j; k++ {
			for _, r := range batches[k].members {
				if jumps(&arr[w], &arr[r]) {
					fail("batch %d served arrival %d while arrival %d, ahead of it, waited", k, r, w)
				}
			}
		}
	}

	res.line = fmt.Sprintf("200=%d 503=%d 504=%d gone=%d miss=%.4f evicted=%d edf_evictions=%d wcet_shed=%d batches=%d max_depth=%d digest=%016x",
		ok, shed, expired, gone, float64(misses)/float64(len(arr)), ms.Evicted, ms.EDFEvictions, ms.WCETShed, ms.Batches, ms.MaxQueueDepth, digest.Sum64())
	return res
}
