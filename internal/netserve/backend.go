package netserve

import (
	"fmt"
	"strconv"

	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Answer is one request's share of a served batch.
type Answer struct {
	// Outputs are the numeric outputs for this input.
	Outputs []*tensor.Tensor
	// Tier names what served it: a fleet slot ("replica-2") or the FP32
	// reference ("fp32").
	Tier string
	// Degraded reports the primary serving path did not answer.
	Degraded bool
}

// BatchAnswer is a backend's answer to one coalesced batch.
type BatchAnswer struct {
	// Results[i] answers input i, in input order.
	Results []Answer
	// LatencySec is the batch's simulated service latency (shared by
	// every member — the batch rides one launch sequence).
	LatencySec float64
	// DeadlineMiss reports the simulated service latency overran the
	// batch's budget — the serving layer's own verdict.
	DeadlineMiss bool
}

// Backend serves coalesced batches for one model. The batch's request
// context carries its budget (the tightest member deadline), band and
// tenant; ServeBatch must thread it through a budget-carrying serving
// path (the deadlineflow analyzer enforces that) and return an error
// wrapping serve.ErrDeadlineExceeded when the budget expired — or a
// layer-boundary check proved it unmeetable — before any tier
// answered, a nil error with len(Results) == len(xs) otherwise (the
// queue answers a batch that breaks this 500 "backend"); it is called
// from a single batcher goroutine per model. Ready feeds the readiness
// probe.
type Backend interface {
	ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchAnswer, error)
	Ready() (ok bool, detail string)
	InputShape() [4]int
}

// poolBackend serves through a serve.Pool, the one server: the batch
// context flows into the fleet dispatch (DoBatchCtx), where an aborting
// budget arms each replica's layer-boundary guard and abandons the batch
// with serve.ErrDeadlineExceeded before the FP32 tier when it cannot be
// met. The miss verdict is the fleet's own (PoolBatchResult.DeadlineMiss);
// readiness follows the supervisor's active replica count.
type poolBackend struct {
	pool  *serve.Pool
	shape [4]int
	// tiers[slot] names replica slot's answers, built once per slot.
	tiers []string
}

// NewPoolBackend wraps a replica fleet; a fleet of one is the plain
// resilient server.
func NewPoolBackend(pool *serve.Pool) Backend {
	b := &poolBackend{pool: pool}
	engines := pool.Engines()
	if len(engines) > 0 && engines[0].Graph != nil {
		b.shape = engines[0].Graph.InputShape
	}
	for slot := range engines {
		b.tiers = append(b.tiers, "replica-"+strconv.Itoa(slot))
	}
	return b
}

// NewExecutorBackend serves a Pool of one; the pool's own engines give
// the input shape, so shape is ignored. bench/ only; deleted with
// serve.Executor.
func NewExecutorBackend(ex *serve.Executor, shape [4]int) Backend {
	return NewPoolBackend((*serve.Pool)(ex))
}

func (b *poolBackend) InputShape() [4]int { return b.shape }

func (b *poolBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchAnswer, error) {
	br, err := b.pool.DoBatchCtx(ctx, xs, runIndex)
	if err != nil {
		return nil, err
	}
	ba := &BatchAnswer{
		LatencySec:   br.LatencySec,
		DeadlineMiss: br.DeadlineMiss,
	}
	ba.Results = make([]Answer, len(br.Results))
	for i, pr := range br.Results {
		tier := "fp32"
		if !pr.Fallback {
			tier = b.tiers[pr.Replica]
		}
		ba.Results[i] = Answer{Outputs: pr.Outputs, Tier: tier, Degraded: pr.Fallback}
	}
	return ba, nil
}

func (b *poolBackend) Ready() (bool, string) {
	h := b.pool.Health()
	if h.Active == 0 {
		return false, "no active replicas"
	}
	return true, fmt.Sprintf("%d/%d replicas active", h.Active, len(h.Replicas))
}
