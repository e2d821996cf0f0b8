// Package netserve is the network serving front-end: a stdlib net/http
// inference server in front of serving backends (a serve.Pool, a fleet
// of one or more replicas) whose headline property is staying correct
// and bounded under hostile load.
//
// Per model it runs one bounded coalescing queue: concurrent requests
// pack into Engine.InferBatchCtx windows triggered by batch size or a
// deadline window, and a single batcher goroutine serves each window
// through the Backend the model brings (NewPoolBackend over a
// self-healing replica fleet). The queue is one ordered list whose sort
// key is the discipline. Admission control is explicit — a full queue evicts its
// tail for a newcomer that sorts before it and otherwise sheds the
// newcomer, with 503 + Retry-After (under the default FIFO key, low
// priority first: a high-priority arrival evicts the youngest queued
// low-priority request), a draining server sheds everything, and a
// request whose client deadline expires in the queue is answered 504 on
// the spot. Client deadlines arrive in an X-Deadline-Ms header, are
// clamped to the server's bounds, and are stamped — with the X-Priority
// band and X-Tenant id — into one rtctx.Request per arrival that every
// layer below reads: the batch's serving budget flows through the
// pool's deadline machinery down to core's layer-boundary guard, so
// a hopeless batch is abandoned with serve.ErrDeadlineExceeded mid-graph
// instead of burning fallback latency. Config.EDF swaps the key for
// earliest deadline first, which makes the same eviction rule drop-late,
// and Config.WCETAdmission sheds any request whose budget the model's
// worst-case bound (ModelConfig.WCETSec) proves unmeetable. Liveness
// (/healthz), readiness (/readyz, wired to Pool.Health) and a stats
// endpoint (/statsz) make the server probeable, and Drain performs the
// graceful exit: stop admitting, flush every in-flight batch, then shut
// the listener down. Every admitted request is answered exactly once — a
// result, a 503, or a 504 — never a hang.
package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// Config parameterizes a Server. Models is required, and each brings
// its own Backend. Everything else has working defaults.
type Config struct {
	// Models are the served models.
	Models []ModelConfig
	// MaxBatch is the coalescing window's size trigger (default 8).
	MaxBatch int
	// BatchWindow is the coalescing window's deadline trigger: how long
	// a non-full batch waits for company (default 2ms).
	BatchWindow time.Duration
	// QueueDepth bounds each model's queue; arrivals beyond it shed
	// (default 64).
	QueueDepth int
	// DefaultDeadline applies to requests without an X-Deadline-Ms
	// header (default 250ms); MaxDeadline clamps client-supplied
	// deadlines (default 5s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxBodyBytes bounds a request body (default 1MiB).
	MaxBodyBytes int64
	// EDF orders each model's queue earliest deadline first (then
	// band, arrival and admission order) instead of the default FIFO
	// key, high band first and then admission order. A full queue
	// evicts its tail for a newcomer that sorts before it, so under EDF
	// the latest-deadline member goes for a more urgent arrival
	// (drop-late).
	EDF bool
	// WCETAdmission gates admission on each model's worst-case
	// execution time bound, ModelConfig.WCETSec: a request whose whole
	// budget is below the bound is shed 503 immediately — queueing it
	// could only produce a 504.
	WCETAdmission bool
}

// ModelConfig is one served model: its name in the request path and the
// Backend that serves it (required; NewPoolBackend wraps the serve
// package's server).
type ModelConfig struct {
	Name    string
	Backend Backend
	// WCETSec is the model's worst-case service bound in simulated
	// seconds, for instance serve.Registry.WCETBound's certification.
	// Config.WCETAdmission requires it finite and positive; without
	// admission it is ignored.
	WCETSec float64
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.MaxBatch <= 0 {
		d.MaxBatch = 8
	}
	if d.BatchWindow <= 0 {
		d.BatchWindow = 2 * time.Millisecond
	}
	if d.QueueDepth <= 0 {
		d.QueueDepth = 64
	}
	if d.DefaultDeadline <= 0 {
		d.DefaultDeadline = 250 * time.Millisecond
	}
	if d.MaxDeadline <= 0 {
		d.MaxDeadline = 5 * time.Second
	}
	if d.MaxBodyBytes <= 0 {
		d.MaxBodyBytes = 1 << 20
	}
	return d
}

// InferReply is the success body of POST /v1/models/{model}/infer.
type InferReply struct {
	Model string `json:"model"`
	// Argmax is the predicted class (argmax of the first output).
	Argmax int `json:"argmax"`
	// LatencySec is the batch's simulated service latency.
	LatencySec float64 `json:"latency_sec"`
	// QueueMS is this request's wall-clock queueing delay.
	QueueMS float64 `json:"queue_ms"`
	// BatchSize is how many requests shared the launch window.
	BatchSize int `json:"batch_size"`
	// Tier names the serving path (fleet slot or "fp32").
	Tier string `json:"tier"`
	// Tenant echoes the X-Tenant header the request carried.
	Tenant string `json:"tenant,omitempty"`
	// Degraded and DeadlineMiss mirror the fleet's verdicts.
	Degraded     bool `json:"degraded,omitempty"`
	DeadlineMiss bool `json:"deadline_miss,omitempty"`
}

// ErrReply is the error body of every non-200 response.
type ErrReply struct {
	Error string `json:"error"`
	// Reason is machine-readable: "queue-full", "evicted", "draining",
	// "wcet", "deadline", "backend", "bad-request", "unknown-model".
	Reason string `json:"reason"`
}

// ModelStats are one model queue's cumulative counters (gauges
// QueueDepth and MaxQueueDepth aside).
type ModelStats struct {
	Accepted       uint64 `json:"accepted"`
	Served         uint64 `json:"served"`
	Shed           uint64 `json:"shed"`
	ShedLow        uint64 `json:"shed_low"`
	ShedHigh       uint64 `json:"shed_high"`
	Evicted        uint64 `json:"evicted"`
	EDFEvictions   uint64 `json:"edf_evictions"`
	WCETShed       uint64 `json:"wcet_shed"`
	Expired        uint64 `json:"expired"`
	Aborted        uint64 `json:"aborted"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	ClientGone     uint64 `json:"client_gone"`
	Errors         uint64 `json:"errors"`
	Batches        uint64 `json:"batches"`
	BatchedInputs  uint64 `json:"batched_inputs"`
	QueueDepth     int    `json:"queue_depth"`
	MaxQueueDepth  int    `json:"max_queue_depth"`
}

// ServerStats is the /statsz body.
type ServerStats struct {
	Draining bool                  `json:"draining"`
	InFlight int64                 `json:"in_flight"`
	Models   map[string]ModelStats `json:"models"`
}

// ReadyReply is the /readyz body.
type ReadyReply struct {
	Ready  bool                  `json:"ready"`
	Models map[string]ModelReady `json:"models"`
}

// ModelReady is one model's readiness verdict.
type ModelReady struct {
	Ready  bool   `json:"ready"`
	Detail string `json:"detail"`
}

// Server is the inference front-end. Build with New, expose with
// Handler (tests) or Start (a real listener), stop with Drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queues map[string]*modelQueue
	inputs []*tensor.Tensor // deterministic benign inputs for index requests

	wg       sync.WaitGroup // batcher goroutines
	inFlight atomic.Int64

	mu       sync.Mutex
	draining bool
	httpSrv  *http.Server
}

// New validates the config, builds one coalescing queue per model, and
// starts the batcher goroutines (idle until requests arrive). The
// server is not listening yet: pass Handler to a test server or call
// Start.
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("netserve: config needs at least one model")
	}
	c := cfg.withDefaults()
	s := &Server{cfg: c, queues: map[string]*modelQueue{}}
	for _, mc := range c.Models {
		if mc.Name == "" {
			return nil, fmt.Errorf("netserve: model config needs a name")
		}
		if _, dup := s.queues[mc.Name]; dup {
			return nil, fmt.Errorf("netserve: model %q configured twice", mc.Name)
		}
		if mc.Backend == nil {
			return nil, fmt.Errorf("netserve: model %q has no backend", mc.Name)
		}
		var wcetSec float64
		if c.WCETAdmission {
			// A NaN bound would switch admission off unnoticed (no budget
			// compares below it), and +Inf would shed every request.
			if wcetSec = mc.WCETSec; !(wcetSec > 0) || math.IsInf(wcetSec, 1) {
				return nil, fmt.Errorf("netserve: model %q has WCET admission enabled but WCETSec %v is not a finite positive bound", mc.Name, wcetSec)
			}
		}
		s.queues[mc.Name] = newModelQueue(mc.Name, mc.Backend, c.MaxBatch, c.BatchWindow, c.QueueDepth, c.EDF, wcetSec)
	}
	// Deterministic benign inputs for {"input": N} requests: one per
	// class, same synthesis the experiments use.
	for _, sm := range dataset.Benign(dataset.DefaultBenign(1)) {
		s.inputs = append(s.inputs, sm.Image)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/models/{model}/infer", s.handleInfer)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	for _, q := range s.queues {
		s.wg.Add(1)
		go q.run(&s.wg)
	}
	return s, nil
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netserve: listen: %w", err)
	}
	s.mu.Lock()
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	srv := s.httpSrv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is the graceful exit: stop admitting (every new request sheds
// 503, readiness flips to 503), flush every queued request and
// in-flight batch, wait for the batchers to exit, then shut down the
// listener if Start opened one. Every request admitted before the drain
// gets its real answer. Idempotent; the context bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	srv := s.httpSrv
	s.mu.Unlock()
	for _, q := range s.queues {
		q.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("netserve: drain interrupted with batches in flight: %w", ctx.Err())
	}
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("netserve: listener shutdown: %w", err)
		}
	}
	return nil
}

// Stats snapshots every queue's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Draining: s.Draining(),
		InFlight: s.inFlight.Load(),
		Models:   map[string]ModelStats{},
	}
	for name, q := range s.queues {
		st.Models[name] = q.snapshot()
	}
	return st
}

// inferRequest is the POST body: either a deterministic benign-input
// index or a raw NCHW payload.
type inferRequest struct {
	Input *int      `json:"input"`
	Data  []float32 `json:"data"`
	Shape [4]int    `json:"shape"`
}

// writeJSON marshals before it commits the status: a body that cannot be
// encoded (a NaN latency out of a faulty backend) is answered 500
// "backend", not status over no body. It reports whether body went out.
func writeJSON(w http.ResponseWriter, status int, body any) bool {
	data, err := json.Marshal(body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "backend", "unencodable reply: "+err.Error())
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
	return true
}

func writeErr(w http.ResponseWriter, status int, reason, msg string) {
	writeJSON(w, status, ErrReply{Error: msg, Reason: reason})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rep := ReadyReply{Ready: !s.Draining(), Models: map[string]ModelReady{}}
	for name, q := range s.queues {
		ok, detail := q.be.Ready()
		rep.Models[name] = ModelReady{Ready: ok, Detail: detail}
		if !ok {
			rep.Ready = false
		}
	}
	status := http.StatusOK
	if !rep.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// parseDeadline reads X-Deadline-Ms, applying the default and the
// server-side clamp.
func (s *Server) parseDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return s.cfg.DefaultDeadline, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("X-Deadline-Ms %q is not a positive integer", h)
	}
	// Clamp before converting: near MaxInt64 the product wraps negative.
	if int64(ms) > int64(s.cfg.MaxDeadline/time.Millisecond) {
		return s.cfg.MaxDeadline, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// parsePriority reads X-Priority ("high", "low" or absent).
func parsePriority(r *http.Request) (band rtctx.Band, err error) {
	switch h := r.Header.Get("X-Priority"); h {
	case "", "low":
		return rtctx.BandLow, nil
	case "high":
		return rtctx.BandHigh, nil
	default:
		return rtctx.BandLow, fmt.Errorf("X-Priority %q is not \"high\" or \"low\"", h)
	}
}

// maxTenantLen bounds the X-Tenant header: the tenant id is echoed into
// responses and stats, so an unbounded header is an amplification
// vector.
const maxTenantLen = 128

// parseTenant reads X-Tenant (an opaque tenant id, optional).
func parseTenant(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if len(t) > maxTenantLen {
		return "", fmt.Errorf("X-Tenant exceeds %d bytes", maxTenantLen)
	}
	return t, nil
}

// decodeInput turns the request body into a model-shaped tensor. Raw
// payloads must match the backend's input shape exactly — a mismatched
// tensor cannot share a coalesced batch.
func (s *Server) decodeInput(req *inferRequest, shape [4]int) (*tensor.Tensor, string) {
	switch {
	case req.Input != nil && req.Data != nil:
		return nil, "request has both input index and raw data"
	case req.Input != nil:
		if len(s.inputs) == 0 {
			return nil, "server has no benign inputs"
		}
		idx := *req.Input
		if idx < 0 {
			return nil, "input index is negative"
		}
		return s.inputs[idx%len(s.inputs)], ""
	case req.Data != nil:
		if req.Shape != shape {
			return nil, fmt.Sprintf("shape %v does not match model input %v", req.Shape, shape)
		}
		want := shape[0] * shape[1] * shape[2] * shape[3]
		if len(req.Data) != want {
			return nil, fmt.Sprintf("data length %d does not match shape %v (%d elements)", len(req.Data), shape, want)
		}
		return &tensor.Tensor{N: shape[0], C: shape[1], H: shape[2], W: shape[3], Data: req.Data}, ""
	default:
		return nil, "request needs an input index or raw data"
	}
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	q, ok := s.queues[r.PathValue("model")]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-model", fmt.Sprintf("model %q is not served", r.PathValue("model")))
		return
	}
	band, err := parsePriority(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	budget, err := s.parseDeadline(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	tenant, err := parseTenant(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}

	shape := q.be.InputShape()
	body, err := s.decodeBody(w, r, shape)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "bad-request",
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, "bad-request", "malformed JSON body: "+err.Error())
		return
	}
	x, reason := s.decodeInput(&body, shape)
	if reason != "" {
		writeErr(w, http.StatusBadRequest, "bad-request", reason)
		return
	}

	// One first-class request context per arrival: every layer below —
	// queue ordering, WCET admission, the batch budget, the pool's
	// deadline machinery, the layer-boundary guard — reads this value.
	now := time.Now()
	req := &request{
		x: x,
		ctx: rtctx.Request{
			BudgetSec: budget.Seconds(),
			Abort:     true,
			Band:      band,
			Tenant:    tenant,
			Arrival:   now,
			Deadline:  now.Add(budget),
		},
		resp: make(chan response, 1),
	}
	if shed := q.admit(req); shed != nil {
		writeResponse(w, q, *shed)
		return
	}
	select {
	case resp := <-req.resp:
		writeResponse(w, q, resp)
	case <-r.Context().Done():
		// Client gone mid-request: mark it so the batcher skips the
		// corpse instead of wasting a batch slot, and count it once.
		req.canceled.Store(true)
		q.noteClientGone()
	}
}

func writeResponse(w http.ResponseWriter, q *modelQueue, resp response) {
	if resp.retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	if !writeJSON(w, resp.status, resp.reply) {
		q.mu.Lock()
		q.stats.Errors++
		q.mu.Unlock()
	}
}
