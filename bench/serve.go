package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// The three serving workloads share one harness: a netserve.Server over
// a backend the harness builds through the same exported constructors
// netserve would use itself (it needs the handles for Stats, and a
// traced run hands them the probe), a seeded load generator, and a
// checker that holds every reply against the pinned answers.

type serveSpec struct {
	workload string
	model    string
	raw      bool // raw NCHW bodies (else index bodies)
	open     bool // open loop through Handler() (else closed loop over a socket)
	maxBatch int  // 0 keeps netserve's default
	edf      bool // EDF queue + WCET admission
	replicas int  // >= 2 builds a quorum pool (else one executor)
	conns    int  // closed loop: keep-alive connections
	warmup   int  // requests sent, and discarded, before measuring
}

var serveSpecs = map[string]serveSpec{
	wlServeClosed:  {workload: wlServeClosed, model: "resnet18", maxBatch: 2, conns: 2, warmup: 256},
	wlServeRaw:     {workload: wlServeRaw, model: "vgg16", raw: true, maxBatch: 2, conns: 2, warmup: 256},
	wlServeOpenEDF: {workload: wlServeOpenEDF, model: "resnet18", open: true, edf: true, replicas: 3, warmup: 64},
}

// maxSchedLate is how far behind its schedule the open-loop generator
// may fall before a window stops describing the server: its samples are
// then dropped, and a run that keeps fewer than minValidWindows is
// invalid.
const (
	maxSchedLate    = 50 * time.Millisecond
	minValidWindows = 3
	serveWindows    = 5
)

type harness struct {
	spec   serveSpec
	bodies [][]byte
	want   *answers

	srv    *netserve.Server
	ex     *serve.Executor
	pool   *serve.Pool
	path   string         // what Handler() routes on
	url    string         // closed loop: the listener's URL
	closed []*http.Client // one per connection

	registryMs, wcetMs float64
}

// newHarness performs the whole set-up a serving process pays before
// its first request: registry and engine builds, WCET certification, the
// backend, the server and its listener. tr is nil on an untraced run.
func newHarness(spec serveSpec, bodies [][]byte, want *answers, tr *tracer) (*harness, error) {
	h := &harness{spec: spec, bodies: bodies, want: want, path: "/v1/models/" + spec.model + "/infer"}
	t0 := time.Now()
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	eng, err := reg.ProxyEngine(spec.model)
	if err != nil {
		return nil, err
	}
	h.registryMs = msSince(t0)

	mc := netserve.ModelConfig{Name: spec.model}
	if spec.edf {
		t1 := time.Now()
		// netserve's own defaults: 12 certification runs, 20 % margin.
		if mc.WCETSec, err = reg.WCETBound(spec.model, 12, 0.2); err != nil {
			return nil, err
		}
		h.wcetMs = msSince(t1)
	}
	if spec.replicas >= 2 {
		pc := serve.PoolConfig{Model: spec.model, Replicas: spec.replicas, Quorum: true}
		var probeErr error
		if tr != nil {
			pc.ReplicaInjector = func(_ int, e *core.Engine) core.FaultInjector {
				p, err := newProbe(tr, e)
				if err != nil {
					probeErr = err
					return nil
				}
				return p
			}
		}
		if h.pool, err = serve.NewPool(reg, pc); err != nil {
			return nil, err
		}
		if probeErr != nil {
			return nil, probeErr
		}
		mc.Backend = netserve.NewPoolBackend(h.pool)
	} else {
		cfg := serve.Config{Seed: "netserve/" + spec.model}
		if tr != nil {
			p, err := newProbe(tr, eng)
			if err != nil {
				return nil, err
			}
			cfg.Injector = p
		}
		if h.ex, err = reg.Executor(spec.model, cfg); err != nil {
			return nil, err
		}
		mc.Backend = netserve.NewExecutorBackend(h.ex, eng.Graph.InputShape)
	}
	if tr != nil {
		mc.Backend = &tracedBackend{inner: mc.Backend, tr: tr}
	}
	h.srv, err = netserve.New(netserve.Config{
		Models:        []netserve.ModelConfig{mc},
		MaxBatch:      spec.maxBatch,
		EDF:           spec.edf,
		WCETAdmission: spec.edf,
	})
	if err != nil {
		return nil, err
	}
	if spec.open {
		return h, nil
	}
	addr, err := h.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.url = "http://" + addr + h.path
	for c := 0; c < spec.conns; c++ {
		// A transport of its own pins each closed loop to one connection.
		h.closed = append(h.closed, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return h, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// close drains the server (which stops its batcher and listener) and
// drops the client connections.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Drain(ctx)
	for _, c := range h.closed {
		c.CloseIdleConnections()
	}
	return err
}

// reply is what the checker and the trace need from one response.
type reply struct {
	ok           bool
	queueMs      float64
	simLatencyMs float64
}

// verdict holds a response against the pinned answer: anything but a
// 200 from the primary path with the expected argmax is a failure.
func (h *harness) verdict(status int, body []byte, input int) reply {
	if status != http.StatusOK {
		return reply{}
	}
	var r netserve.InferReply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply{}
	}
	return reply{
		ok:           h.want.check(input, r.Argmax) && !r.Degraded,
		queueMs:      r.QueueMS,
		simLatencyMs: r.LatencySec * 1e3,
	}
}

// post sends one request over a closed-loop connection.
func (h *harness) post(c *http.Client, rs reqSpec) reply {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(rs.Body))
	if err != nil {
		return reply{}
	}
	for _, kv := range rs.Headers {
		req.Header.Set(kv[0], kv[1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}
	}
	return h.verdict(resp.StatusCode, body, rs.Input)
}

// call drives the handler in-process, as the open loop does.
func (h *harness) call(rs reqSpec) reply {
	rec := h.serve(rs)
	return h.verdict(rec.Code, rec.Body.Bytes(), rs.Input)
}

func (h *harness) serve(rs reqSpec) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, h.path, bytes.NewReader(rs.Body))
	for _, kv := range rs.Headers {
		req.Header.Set(kv[0], kv[1])
	}
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, req)
	return rec
}

// opRec is one request as the generator saw it.
type opRec struct {
	input           int
	due, send, recv time.Time
	rep             reply
}

func (o opRec) sample() sample { return sample{lat: o.recv.Sub(o.due), ok: o.rep.ok} }

// closedStreams opens one request stream per connection.
func (h *harness) closedStreams(seed int64) []*closedStream {
	out := make([]*closedStream, len(h.closed))
	for c := range out {
		out[c] = newClosedStream(h.spec.workload, seed, c, len(h.closed), h.bodies)
	}
	return out
}

// runClosed keeps every connection in a closed loop, each drawing from
// its stream, for d (or, when limit is positive, for limit requests a
// connection). A request in flight when the time is up is waited for.
func (h *harness) runClosed(streams []*closedStream, d time.Duration, limit int) []opRec {
	out := make([][]opRec, len(h.closed))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range h.closed {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; (limit > 0 && n < limit) || (limit <= 0 && time.Now().Before(deadline)); n++ {
				rs := streams[c].next()
				t := time.Now()
				rep := h.post(h.closed[c], rs)
				out[c] = append(out[c], opRec{input: rs.Input, due: t, send: t, recv: time.Now(), rep: rep})
			}
		}(c)
	}
	wg.Wait()
	var all []opRec
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// runOpen fires the schedule: one goroutine per arrival, each started
// when the arrival is due and timed from that instant, however late the
// generator itself ran.
func (h *harness) runOpen(sched []reqSpec, start time.Time) []opRec {
	out := make([]opRec, len(sched))
	var wg sync.WaitGroup
	for i, rs := range sched {
		due := start.Add(rs.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, rs reqSpec) {
			defer wg.Done()
			send := time.Now()
			rep := h.call(rs)
			out[i] = opRec{input: rs.Input, due: due, send: send, recv: time.Now(), rep: rep}
		}(i, rs)
	}
	wg.Wait()
	return out
}

// warm sends the spec's warm-up requests and discards them: caches
// fill, arenas size themselves, connections open. It is part of set-up.
func (h *harness) warm(seed int64) error {
	var ops []opRec
	if h.spec.open {
		sched := openSchedule(seed^0x77, time.Second, h.bodies)
		for i := range sched {
			sched[i].Due = 0
		}
		for len(sched) > h.spec.warmup {
			sched = sched[:h.spec.warmup]
		}
		// Bursts of 8, back to back: enough to exercise batching without
		// overflowing the queue.
		for i := 0; i < len(sched); i += openBurstSize {
			ops = append(ops, h.runOpen(sched[i:min(i+openBurstSize, len(sched))], time.Now())...)
		}
	} else {
		ops = h.runClosed(h.closedStreams(seed^0x77), 0, h.spec.warmup/len(h.closed))
	}
	for _, o := range ops {
		if !o.rep.ok {
			return fmt.Errorf("%s: a warm-up request on input %d failed its check", h.spec.workload, o.input)
		}
	}
	return nil
}

// serveSlice is how long one slice of serving load lasts: two burst
// blocks of the open-loop schedule, so every slice has the same shape.
const serveSlice = 2 * openBurstEvery * time.Second / openTickHz

// serveWindow is one measuring window: its slices and every request
// sent in them.
type serveWindow struct {
	slices []slice
	ops    []opRec
	cnt    counters // what the stack's failure counters gained in the window
}

// measure runs the workload for about dur in n windows. Each window is
// as many whole slices as fit its share of dur.
func (h *harness) measure(seed int64, dur time.Duration, n int, m *meter) []serveWindow {
	perWindow := max(1, int(dur/time.Duration(n)/serveSlice))
	var streams []*closedStream
	var sched []reqSpec
	if h.spec.open {
		sched = openSchedule(seed, time.Duration(n*perWindow)*serveSlice, h.bodies)
	} else {
		streams = h.closedStreams(seed)
	}
	windows := make([]serveWindow, n)
	for w := range windows {
		before := h.counters()
		for k := 0; k < perWindow; k++ {
			var ops []opRec
			sl := m.slice(func() []sample {
				if h.spec.open {
					// This slice's share of the schedule, on a clock of its own.
					from := time.Duration(w*perWindow+k) * serveSlice
					var part []reqSpec
					for _, rs := range sched {
						if rs.Due >= from && rs.Due < from+serveSlice {
							rs.Due -= from
							part = append(part, rs)
						}
					}
					ops = h.runOpen(part, time.Now())
				} else {
					ops = h.runClosed(streams, serveSlice, 0)
				}
				samples := make([]sample, len(ops))
				for i, o := range ops {
					samples[i] = o.sample()
				}
				return samples
			})
			windows[w].slices = append(windows[w].slices, sl)
			windows[w].ops = append(windows[w].ops, ops...)
		}
		windows[w].cnt = h.counters().minus(before)
	}
	return windows
}

// counters are the stack's own failure counters, all expected 0.
type counters struct {
	shed, expired, edfEvictions, wcetShed, clientGone uint64
	batches, batchedInputs                            uint64
	maxQueueDepth                                     int
	degraded, retries, fp32, quarantines              uint64
}

func (h *harness) counters() counters {
	ms := h.srv.Stats().Models[h.spec.model]
	c := counters{
		shed: ms.Shed, expired: ms.Expired, edfEvictions: ms.EDFEvictions, wcetShed: ms.WCETShed,
		clientGone: ms.ClientGone, batches: ms.Batches, batchedInputs: ms.BatchedInputs,
		maxQueueDepth: ms.MaxQueueDepth,
	}
	if h.pool != nil {
		ps := h.pool.Stats()
		c.degraded = ps.FP32Served + ps.NoMajority
		c.retries = ps.ReplicaFails
		c.fp32 = ps.FP32Served
		c.quarantines = ps.Quarantines
	} else {
		es := h.ex.Stats()
		c.degraded = es.TierServed[serve.TierLowBatch] + es.TierServed[serve.TierFP32]
		c.retries = es.Retries
		c.fp32 = es.TierServed[serve.TierFP32]
		c.quarantines = es.BreakerTrips
	}
	return c
}

// minus is what the cumulative counters gained since an earlier reading
// (the queue-depth high-water mark is a gauge and is kept as it is).
func (c counters) minus(o counters) counters {
	return counters{
		shed: c.shed - o.shed, expired: c.expired - o.expired, edfEvictions: c.edfEvictions - o.edfEvictions,
		wcetShed: c.wcetShed - o.wcetShed, clientGone: c.clientGone - o.clientGone,
		batches: c.batches - o.batches, batchedInputs: c.batchedInputs - o.batchedInputs,
		maxQueueDepth: c.maxQueueDepth,
		degraded:      c.degraded - o.degraded, retries: c.retries - o.retries, fp32: c.fp32 - o.fp32, quarantines: c.quarantines - o.quarantines,
	}
}

// plus sums two windows' gains.
func (c counters) plus(o counters) counters {
	return counters{
		shed: c.shed + o.shed, expired: c.expired + o.expired, edfEvictions: c.edfEvictions + o.edfEvictions,
		wcetShed: c.wcetShed + o.wcetShed, clientGone: c.clientGone + o.clientGone,
		batches: c.batches + o.batches, batchedInputs: c.batchedInputs + o.batchedInputs,
		maxQueueDepth: max(c.maxQueueDepth, o.maxQueueDepth),
		degraded:      c.degraded + o.degraded, retries: c.retries + o.retries, fp32: c.fp32 + o.fp32, quarantines: c.quarantines + o.quarantines,
	}
}

// clean reports whether the stack refused, lost or degraded nothing. A
// quarantine is not on the list: the pool's replicas are diverged builds
// that legitimately disagree on a few inputs, and when a burst happens to
// line several of those up the supervisor quarantines and rebuilds one
// while the other two keep out-voting it — every answer still checks out.
// It is reported (serve.quarantines), not failed.
func (c counters) clean() bool {
	return c.shed+c.expired+c.edfEvictions+c.wcetShed+c.clientGone+c.degraded+c.fp32 == 0
}

// corpusTensors returns the tensors behind a spec's bodies, for the
// trace linker.
func corpusTensors(raw bool) []*tensor.Tensor {
	if raw {
		return rawCorpus()
	}
	return indexCorpus()
}

// pinServe asks a freshly built stack for its answer to every corpus
// input, one request at a time: the content of expected/<workload>.json.
func pinServe(spec serveSpec) (*answers, error) {
	bodies := corpusBodies(spec.raw)
	h, err := newHarness(spec, bodies, &answers{}, nil)
	if err != nil {
		return nil, err
	}
	a := &answers{Model: spec.model, Backend: "executor"}
	if spec.replicas >= 2 {
		a.Backend = fmt.Sprintf("quorum%d", spec.replicas)
	}
	for i, body := range bodies {
		rec := h.serve(reqSpec{Input: i, Body: body})
		var r netserve.InferReply
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != http.StatusOK || r.Degraded {
			return nil, fmt.Errorf("input %d: status %d, degraded %v, body %q", i, rec.Code, r.Degraded, rec.Body.String())
		}
		a.Argmax = append(a.Argmax, r.Argmax)
	}
	if c := h.counters(); !c.clean() {
		return nil, fmt.Errorf("the stack degraded while pinning: %+v", c)
	}
	return a, h.close()
}
