package netserve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// fakeBackend is a controllable backend: it can block until released,
// fail with a chosen error, and report chosen readiness. Each answer
// echoes its input tensor, so the reply argmax is the input argmax.
type fakeBackend struct {
	shape [4]int
	gate  chan struct{} // non-nil: ServeBatch blocks until closed
	start chan struct{} // non-nil: signaled (cap>=1) on ServeBatch entry
	ready atomic.Bool

	mu      sync.Mutex
	err     error
	batches [][]int // argmax of each member, per batch, in order
}

func newFakeBackend() *fakeBackend {
	b := &fakeBackend{shape: [4]int{1, 3, 4, 4}}
	b.ready.Store(true)
	return b
}

func (b *fakeBackend) InputShape() [4]int { return b.shape }

func (b *fakeBackend) Ready() (bool, string) {
	if !b.ready.Load() {
		return false, "backend offline"
	}
	return true, "ok"
}

func (b *fakeBackend) setErr(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
}

func (b *fakeBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*netserve.BatchAnswer, error) {
	if b.start != nil {
		select {
		case b.start <- struct{}{}:
		default:
		}
	}
	if b.gate != nil {
		<-b.gate
	}
	b.mu.Lock()
	err := b.err
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	batch := make([]int, 0, len(xs))
	ba := &netserve.BatchAnswer{LatencySec: 1e-4}
	for _, x := range xs {
		best := 0
		for i, v := range x.Data {
			if v > x.Data[best] {
				best = i
			}
		}
		batch = append(batch, best)
		ba.Results = append(ba.Results, netserve.Answer{
			Outputs: []*tensor.Tensor{x},
			Tier:    "fake",
		})
	}
	b.mu.Lock()
	b.batches = append(b.batches, batch)
	b.mu.Unlock()
	return ba, nil
}

func (b *fakeBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int, len(b.batches))
	for i, batch := range b.batches {
		out[i] = len(batch)
	}
	return out
}

// servedArgmaxes flattens every served member's argmax.
func (b *fakeBackend) servedArgmaxes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for _, batch := range b.batches {
		out = append(out, batch...)
	}
	return out
}

// newFakeServer builds a server over a single fake-backed model "m".
func newFakeServer(t *testing.T, be netserve.Backend, mut func(*netserve.Config)) (*netserve.Server, *httptest.Server) {
	t.Helper()
	cfg := netserve.Config{Models: []netserve.ModelConfig{{Name: "m", Backend: be}}}
	if mut != nil {
		mut(&cfg)
	}
	s, err := netserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// rawBody builds a {"data","shape"} body whose argmax is the given class.
func rawBody(t *testing.T, shape [4]int, class int) []byte {
	t.Helper()
	n := shape[0] * shape[1] * shape[2] * shape[3]
	data := make([]float32, n)
	data[class%n] = 1
	body, err := json.Marshal(map[string]any{"data": data, "shape": shape})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

type result struct {
	status int
	retry  string
	infer  netserve.InferReply
	errRep netserve.ErrReply
}

// post sends one inference request and decodes whichever reply came back.
func post(t *testing.T, url string, body []byte, hdr map[string]string) result {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/models/m/infer", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	res := result{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res.infer); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &res.errRep); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return res
}

// Concurrent raw-tensor requests all answer 200 with the right argmax,
// and at least one batch coalesces more than one request.
func TestServeCoalescesAndAnswers(t *testing.T) {
	be := newFakeBackend()
	_, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBatch = 8
		c.BatchWindow = 20 * time.Millisecond
	})
	const n = 16
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = post(t, ts.URL, rawBody(t, be.shape, i), nil)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("req %d: status %d (%+v)", i, r.status, r.errRep)
		}
		if r.infer.Argmax != i%48 {
			t.Fatalf("req %d: argmax %d, want %d", i, r.infer.Argmax, i%48)
		}
		if r.infer.Tier != "fake" || r.infer.Model != "m" {
			t.Fatalf("req %d: reply %+v", i, r.infer)
		}
	}
	coalesced := false
	for _, sz := range be.batchSizes() {
		if sz > 8 {
			t.Fatalf("batch of %d exceeds MaxBatch 8", sz)
		}
		if sz > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("no batch coalesced >1 request: sizes %v", be.batchSizes())
	}
}

// With the backend wedged and the queue full: low arrivals shed 503
// queue-full with Retry-After, a high arrival evicts the youngest queued
// low request, and nothing hangs.
func TestShedAndEviction(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	be.start = make(chan struct{}, 1)
	s, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBatch = 1 // serve one at a time so the queue actually fills
		c.QueueDepth = 3
		c.DefaultDeadline = 5 * time.Second
	})

	async := func(hdr map[string]string) chan result {
		ch := make(chan result, 1)
		go func() { ch <- post(t, ts.URL, rawBody(t, be.shape, 1), hdr) }()
		return ch
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Models["m"].QueueDepth != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d: %+v", want, s.Stats().Models["m"])
			}
			time.Sleep(time.Millisecond)
		}
	}

	first := async(nil)
	<-be.start // wedged in the backend; queue is empty again
	lows := []chan result{async(nil), async(nil), async(nil)}
	waitDepth(3)

	shed := post(t, ts.URL, rawBody(t, be.shape, 1), nil)
	if shed.status != 503 || shed.errRep.Reason != "queue-full" {
		t.Fatalf("overflow low request: %+v", shed)
	}
	if shed.retry == "" {
		t.Fatal("503 shed missing Retry-After")
	}

	highCh := async(map[string]string{"X-Priority": "high"})
	// The high arrival must evict exactly one queued low request before
	// the backend is released (which of the three is a race between their
	// HTTP round-trips, so judge by count, not identity).
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Models["m"].Evicted != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("high arrival never evicted a low request: %+v", s.Stats().Models["m"])
		}
		time.Sleep(time.Millisecond)
	}

	close(be.gate)
	collect := func(name string, ch chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung after release", name)
			return result{}
		}
	}
	if r := collect("first", first); r.status != 200 {
		t.Fatalf("first: %+v", r)
	}
	if r := collect("high", highCh); r.status != 200 {
		t.Fatalf("high: %+v", r)
	}
	served, evicted := 0, 0
	for i, ch := range lows {
		switch r := collect(fmt.Sprintf("low-%d", i), ch); {
		case r.status == 200:
			served++
		case r.status == 503 && r.errRep.Reason == "evicted" && r.retry != "":
			evicted++
		default:
			t.Fatalf("low-%d: %+v", i, r)
		}
	}
	if served != 2 || evicted != 1 {
		t.Fatalf("low requests: %d served, %d evicted (want 2/1)", served, evicted)
	}

	st := s.Stats().Models["m"]
	if st.Evicted != 1 || st.Shed != 2 || st.ShedLow != 2 || st.ShedHigh != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxQueueDepth > 3 {
		t.Fatalf("queue depth %d exceeded bound 3", st.MaxQueueDepth)
	}
}

// A request whose deadline expires while queued is answered 504 at pop
// time; a backend deadline abort maps to 504 too, other errors to 500.
func TestDeadlineAndErrorMapping(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	be.start = make(chan struct{}, 1)
	s, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBatch = 1
	})

	first := make(chan result, 1)
	go func() { first <- post(t, ts.URL, rawBody(t, be.shape, 0), nil) }()
	<-be.start

	queued := make(chan result, 1)
	go func() {
		queued <- post(t, ts.URL, rawBody(t, be.shape, 0), map[string]string{"X-Deadline-Ms": "20"})
	}()
	// Let the queued request's 20ms budget lapse while the backend is
	// wedged, then release.
	time.Sleep(60 * time.Millisecond)
	close(be.gate)

	if r := <-first; r.status != 200 {
		t.Fatalf("first request: %+v", r)
	}
	if r := <-queued; r.status != 504 || r.errRep.Reason != "deadline" {
		t.Fatalf("queue-expired request: %+v", r)
	}
	if st := s.Stats().Models["m"]; st.Expired != 1 || st.DeadlineMisses == 0 {
		t.Fatalf("stats %+v", st)
	}

	// The gate stays closed (instant pass-through) for the error cases.
	be.setErr(fmt.Errorf("tier walk: %w", serve.ErrDeadlineExceeded))
	if r := post(t, ts.URL, rawBody(t, be.shape, 0), nil); r.status != 504 || r.errRep.Reason != "deadline" {
		t.Fatalf("backend deadline abort: %+v", r)
	}
	if st := s.Stats().Models["m"]; st.Aborted != 1 {
		t.Fatalf("stats after abort %+v", st)
	}

	be.setErr(fmt.Errorf("replica fire"))
	if r := post(t, ts.URL, rawBody(t, be.shape, 0), nil); r.status != 500 || r.errRep.Reason != "backend" {
		t.Fatalf("backend failure: %+v", r)
	}
	if st := s.Stats().Models["m"]; st.Errors != 1 {
		t.Fatalf("stats after error %+v", st)
	}
}

// Drain answers everything already admitted, sheds new arrivals with
// "draining", flips readiness to 503, and leaves zero in flight.
func TestGracefulDrain(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	be.start = make(chan struct{}, 1)
	s, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBatch = 1
		c.DefaultDeadline = 5 * time.Second
	})

	inFlight := make(chan result, 1)
	go func() { inFlight <- post(t, ts.URL, rawBody(t, be.shape, 0), nil) }()
	<-be.start
	queuedCh := make(chan result, 1)
	go func() { queuedCh <- post(t, ts.URL, rawBody(t, be.shape, 0), nil) }()
	for s.Stats().Models["m"].QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if r := post(t, ts.URL, rawBody(t, be.shape, 0), nil); r.status != 503 || r.errRep.Reason != "draining" {
		t.Fatalf("post-drain request: %+v", r)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz during drain: %d", resp.StatusCode)
	}

	close(be.gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if r := <-inFlight; r.status != 200 {
		t.Fatalf("in-flight request after drain: %+v", r)
	}
	if r := <-queuedCh; r.status != 200 {
		t.Fatalf("queued request after drain: %+v", r)
	}
	st := s.Stats()
	if !st.Draining || st.Models["m"].QueueDepth != 0 {
		t.Fatalf("post-drain stats %+v", st)
	}
}

// Liveness is unconditional; readiness follows the backend's verdict.
func TestHealthAndReadiness(t *testing.T) {
	be := newFakeBackend()
	_, ts := newFakeServer(t, be, nil)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	be.ready.Store(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rep netserve.ReadyReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || rep.Ready || rep.Models["m"].Detail != "backend offline" {
		t.Fatalf("readyz with offline backend: %d %+v", resp.StatusCode, rep)
	}
	// Liveness still answers: a not-ready server is not a dead server.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz with offline backend: %d", resp.StatusCode)
	}
}

// Malformed requests map to explicit client errors, never a hang: bad
// priority, bad deadline, unknown model, malformed JSON, wrong shape,
// oversized body, and a both-inputs body.
func TestBadRequests(t *testing.T) {
	be := newFakeBackend()
	_, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBodyBytes = 2048
	})
	ok := rawBody(t, be.shape, 0)

	cases := []struct {
		name   string
		url    string
		body   []byte
		hdr    map[string]string
		status int
		reason string
	}{
		{"bad priority", "m", ok, map[string]string{"X-Priority": "urgent"}, 400, "bad-request"},
		{"bad deadline", "m", ok, map[string]string{"X-Deadline-Ms": "soon"}, 400, "bad-request"},
		{"negative deadline", "m", ok, map[string]string{"X-Deadline-Ms": "-5"}, 400, "bad-request"},
		{"unknown model", "nope", ok, nil, 404, "unknown-model"},
		{"malformed json", "m", []byte("{"), nil, 400, "bad-request"},
		{"wrong shape", "m", []byte(`{"data":[1,2],"shape":[1,1,1,2]}`), nil, 400, "bad-request"},
		{"short data", "m", []byte(`{"data":[1,2],"shape":[1,3,4,4]}`), nil, 400, "bad-request"},
		{"no input", "m", []byte(`{}`), nil, 400, "bad-request"},
		{"both inputs", "m", []byte(`{"input":1,"data":[1],"shape":[1,3,4,4]}`), nil, 400, "bad-request"},
		{"negative index", "m", []byte(`{"input":-1}`), nil, 400, "bad-request"},
		// A data array far past MaxBodyBytes: the decoder must cross the
		// byte limit mid-value, so MaxBytesReader trips before any shape
		// validation could answer 400.
		{"oversized body", "m",
			[]byte(`{"data":[` + strings.Repeat("0,", 4096) + `0],"shape":[1,3,4,4]}`),
			nil, 413, "bad-request"},
	}

	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/"+tc.url+"/infer", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range tc.hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var rep netserve.ErrReply
		if err := json.Unmarshal(raw, &rep); err != nil || rep.Reason != tc.reason {
			t.Fatalf("%s: body %q (reason %q, want %q)", tc.name, raw, rep.Reason, tc.reason)
		}
	}
}

// A slow client (body throttled through the faults net injector) still
// gets served — pacing the upload must not fail or wedge the server.
func TestSlowClientStillServed(t *testing.T) {
	be := newFakeBackend()
	_, ts := newFakeServer(t, be, nil)
	body := rawBody(t, be.shape, 3)
	throttled := faults.Throttle(bytes.NewReader(body), 16, 200*time.Microsecond)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/m/infer", throttled)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep netserve.InferReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || rep.Argmax != 3 {
		t.Fatalf("slow client: %d %+v", resp.StatusCode, rep)
	}
}

// A client that disconnects mid-request is skipped by the batcher (no
// batch slot wasted on the corpse) and counted, and the server keeps
// serving live clients.
func TestClientDisconnectMidRequest(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	be.start = make(chan struct{}, 1)
	s, ts := newFakeServer(t, be, func(c *netserve.Config) {
		c.MaxBatch = 1
		c.DefaultDeadline = 5 * time.Second
	})

	first := make(chan result, 1)
	go func() { first <- post(t, ts.URL, rawBody(t, be.shape, 0), nil) }()
	<-be.start

	// Queue a request, then kill its client while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/models/m/infer", bytes.NewReader(rawBody(t, be.shape, 1)))
	if err != nil {
		t.Fatal(err)
	}
	ghostErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		ghostErr <- err
	}()
	for s.Stats().Models["m"].QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ghostErr; err == nil {
		t.Fatal("canceled client request did not error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Models["m"].ClientGone != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never counted: %+v", s.Stats().Models["m"])
		}
		time.Sleep(time.Millisecond)
	}

	close(be.gate)
	if r := <-first; r.status != 200 {
		t.Fatalf("live client: %+v", r)
	}
	// A follow-up request is served; the ghost never consumed a batch.
	if r := post(t, ts.URL, rawBody(t, be.shape, 2), nil); r.status != 200 || r.infer.Argmax != 2 {
		t.Fatalf("post-disconnect request: %+v", r)
	}
	for _, a := range be.servedArgmaxes() {
		if a == 1 {
			t.Fatal("batcher served the disconnected client's input")
		}
	}
	if st := s.Stats().Models["m"]; st.Served != 2 {
		t.Fatalf("served %d, want 2 (%+v)", st.Served, st)
	}
}

// End to end against the real stack: the executor — a Pool of one over
// a registry-built resnet18 — serves benign-index requests over a real
// listener, and every reply names the replica or the FP32 tier.
func TestIntegrationExecutorBackend(t *testing.T) {
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	pool, err := serve.NewPool(reg, serve.PoolConfig{Model: "resnet18", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := netserve.New(netserve.Config{
		Models:   []netserve.ModelConfig{{Name: "resnet18", Backend: netserve.NewPoolBackend(pool)}},
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr

	var wg sync.WaitGroup
	results := make([]result, 6)
	for i := 0; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"input":%d}`, i))
			req, err := http.NewRequest(http.MethodPost, url+"/v1/models/resnet18/infer", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("X-Deadline-Ms", "4000")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			results[i].status = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&results[i].infer); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("req %d: status %d", i, r.status)
		}
		if r.infer.Tier == "" || r.infer.Argmax < 0 {
			t.Fatalf("req %d: reply %+v", i, r.infer)
		}
		if r.infer.Tier != "replica-0" && r.infer.Tier != "fp32" {
			t.Fatalf("req %d: unexpected tier %q", i, r.infer.Tier)
		}
	}

	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is down after drain.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still answering after drain")
	}
}

// End to end against a replica fleet: a pool backend routes through
// serve.Pool, replies carry replica tiers, and readiness reports the
// active count.
func TestIntegrationPoolBackend(t *testing.T) {
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	pool, err := serve.NewPool(reg, serve.PoolConfig{Model: "resnet18", Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := netserve.New(netserve.Config{
		Models: []netserve.ModelConfig{{Name: "resnet18", Backend: netserve.NewPoolBackend(pool)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()

	for i := 0; i < 4; i++ {
		body := []byte(fmt.Sprintf(`{"input":%d}`, i))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/resnet18/infer", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Deadline-Ms", "4000")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var rep netserve.InferReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.HasPrefix(rep.Tier, "replica-") {
			t.Fatalf("req %d: %d %+v", i, resp.StatusCode, rep)
		}
	}

	var rep netserve.ReadyReply
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rep.Ready || !strings.Contains(rep.Models["resnet18"].Detail, "3/3") {
		t.Fatalf("readyz %+v", rep)
	}
}

// New refuses a config it cannot serve rather than starting a server
// that misbehaves: every model needs a unique name and a backend, and
// WCET admission needs a finite positive bound per model (a NaN bound
// would admit everything unnoticed, +Inf would shed everything).
func TestNewRejectsBadConfig(t *testing.T) {
	be := newFakeBackend()
	model := func(name string, wcet float64) netserve.ModelConfig {
		return netserve.ModelConfig{Name: name, Backend: be, WCETSec: wcet}
	}
	admit := func(mc netserve.ModelConfig) netserve.Config {
		return netserve.Config{Models: []netserve.ModelConfig{mc}, WCETAdmission: true}
	}
	for _, tc := range []struct {
		name string
		cfg  netserve.Config
	}{
		{"no models", netserve.Config{}},
		{"empty name", netserve.Config{Models: []netserve.ModelConfig{model("", 0)}}},
		{"duplicate name", netserve.Config{Models: []netserve.ModelConfig{model("m", 0), model("m", 0)}}},
		{"nil backend", netserve.Config{Models: []netserve.ModelConfig{{Name: "m"}}}},
		{"wcet 0", admit(model("m", 0))},
		{"wcet -1", admit(model("m", -1))},
		{"wcet NaN", admit(model("m", math.NaN()))},
		{"wcet +Inf", admit(model("m", math.Inf(1)))},
	} {
		if s, err := netserve.New(tc.cfg); err == nil {
			_ = s.Drain(context.Background())
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	// The same shape with a sound bound is accepted.
	s, err := netserve.New(admit(model("m", 1e-3)))
	if err != nil {
		t.Fatalf("sound config rejected: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// shortBackend breaks the Backend contract with a nil error: its first
// batch gets a nil answer, its second one result too few, the rest the
// fake backend's answer.
type shortBackend struct {
	*fakeBackend
	calls atomic.Int32
}

func (b *shortBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*netserve.BatchAnswer, error) {
	switch b.calls.Add(1) {
	case 1:
		return nil, nil
	case 2:
		ba, err := b.fakeBackend.ServeBatch(ctx, xs, runIndex)
		ba.Results = ba.Results[:len(ba.Results)-1]
		return ba, err
	}
	return b.fakeBackend.ServeBatch(ctx, xs, runIndex)
}

// A short answer fails its batch 500 "backend" and counts in Errors; the
// batcher survives it and serves the next batch.
func TestShortAnswerIs500(t *testing.T) {
	be := &shortBackend{fakeBackend: newFakeBackend()}
	s, ts := newFakeServer(t, be, func(c *netserve.Config) { c.MaxBatch = 1 })
	for i, want := range []int{500, 500, 200} {
		r := post(t, ts.URL, rawBody(t, be.shape, 2), nil)
		if r.status != want || want == 500 && r.errRep.Reason != "backend" {
			t.Fatalf("request %d: %+v, want %d", i, r, want)
		}
	}
	if st := s.Stats().Models["m"]; st.Errors != 2 || st.Served != 1 {
		t.Fatalf("stats %+v, want 2 errors and 1 served", st)
	}
}
