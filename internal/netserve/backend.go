package netserve

import (
	"fmt"

	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Answer is one request's share of a served batch.
type Answer struct {
	// Outputs are the numeric outputs for this input.
	Outputs []*tensor.Tensor
	// Tier names what served it: an executor tier ("tuned", "low-batch",
	// "fp32") or a fleet slot ("replica-2", "fp32").
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
	// batch's budget — the serving layer's own verdict, identical for
	// executor- and pool-backed models.
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

// executorBackend serves through a resilient serve.Executor: the batch
// context is the executor's deadline (retry backoff clamped to the
// remaining budget, layer-boundary abort inside the batched inference,
// typed ErrDeadlineExceeded on expiry).
type executorBackend struct {
	ex    *serve.Executor
	shape [4]int
}

// NewExecutorBackend wraps an executor whose engine consumes inputs of
// the given shape.
func NewExecutorBackend(ex *serve.Executor, shape [4]int) Backend {
	return &executorBackend{ex: ex, shape: shape}
}

func (b *executorBackend) InputShape() [4]int { return b.shape }

func (b *executorBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchAnswer, error) {
	br, err := b.ex.DoBatchCtx(ctx, xs, runIndex)
	if err != nil {
		return nil, err
	}
	ba := &BatchAnswer{LatencySec: br.LatencySec, DeadlineMiss: br.DeadlineMiss}
	ba.Results = make([]Answer, len(br.Outputs))
	for i, out := range br.Outputs {
		ba.Results[i] = Answer{Outputs: out, Tier: br.Tier.String(), Degraded: br.Degraded}
	}
	return ba, nil
}

func (b *executorBackend) Ready() (bool, string) {
	h := b.ex.Health()
	if h.State == "open" {
		return false, "circuit breaker open"
	}
	return true, h.State
}

// poolBackend serves through a self-healing serve.Pool. The batch
// context flows into the fleet dispatch (DoBatchCtx). Every pool
// netserve builds votes by quorum, and a quorum pool never arms the
// layer-boundary guard: a ballot needs every replica's whole answer. It
// abandons a batch only before the FP32 tier, when every replica errored
// and the burned latency is already past the budget. The miss verdict
// is the fleet's own (PoolBatchResult.DeadlineMiss), so executor- and
// pool-backed models report misses identically; readiness follows the
// supervisor's active replica count.
type poolBackend struct {
	pool  *serve.Pool
	shape [4]int
}

// NewPoolBackend wraps a replica fleet.
func NewPoolBackend(pool *serve.Pool) Backend {
	var shape [4]int
	if engines := pool.Engines(); len(engines) > 0 && engines[0].Graph != nil {
		shape = engines[0].Graph.InputShape
	}
	return &poolBackend{pool: pool, shape: shape}
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
		tier := fmt.Sprintf("replica-%d", pr.Replica)
		if pr.Fallback {
			tier = "fp32"
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
