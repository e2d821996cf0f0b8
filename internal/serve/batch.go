// The serving bodies: each server's one entry point, DoBatchCtx — the
// executor's degradation chain and the fleet's dispatch — written once,
// over a batch, on core.Engine.InferBatchCtx: one timed pass and one
// batched numeric inference per attempt instead of one of each per
// image, so launch, retry and voting overhead amortize across the batch.
// A batch holds at least one image and no nil one; a single request is a
// batch of one. Per-image numerics do not depend on the batch: on a
// pristine executor or fleet the batch outputs are bit-identical to
// serving each image individually.
package serve

import (
	"errors"
	"fmt"
	"sort"

	"edgeinfer/internal/core"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// BatchResult is one served batch request.
type BatchResult struct {
	// Outputs[i] are the numeric outputs of input i, in input order.
	Outputs [][]*tensor.Tensor
	// LatencySec is the batch's end-to-end simulated latency (attempts,
	// stalls, backoff), shared by every image of the batch.
	LatencySec float64
	// Tier that finally served the batch.
	Tier Tier
	// Retries issued across all tiers.
	Retries int
	// Degraded reports the batch was not served by the tuned engine.
	Degraded bool
	// DeadlineMiss reports the accumulated latency exceeded the request
	// context's budget (the batch is still answered, unless the context
	// aborts).
	DeadlineMiss bool
}

// DoBatchCtx serves one batched numeric request down the degradation
// chain: the coalescing front-end's serving route, where the batch
// context carries the tightest member deadline. Each tier attempt is a
// single timed pass over the engine plan plus one batched inference; a
// fault anywhere in the batch fails the whole attempt (the batch rides
// one launch sequence). The context's budget is the batch's deadline:
// without Abort it only records misses and the batch is answered late;
// an aborting context (rtctx.Request.Aborts) abandons an expired batch
// with a wrapped ErrDeadlineExceeded before the FP32 tier instead, and
// additionally arms the layer-boundary guard (core.InferBatchCtx), so a
// batch whose burned latency plus remaining expected schedule proves it
// hopeless stops mid-graph with the same error. A nil context serves
// unbounded. With a nil context and a nil or zero-rate injector the
// result is bit-identical to Engine.Run plus Engine.Infer per image;
// under faults the batch degrades down the chain, and apart from a
// deadline abort an error means the FP32 reference path itself cannot
// serve (a configuration bug, not a device fault).
func (ex *Executor) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: DoBatchCtx needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: DoBatchCtx input %d is nil", i)
		}
	}
	ex.count(func(s *Stats) { s.Requests++ })
	res := &BatchResult{Tier: TierFP32}

	tryTuned := ex.admitTuned()
	alloc, _ := ex.cfg.Injector.(Allocator)
	exhausted := false

	for tier := TierTuned; tier < TierFP32; tier++ {
		eng := ex.cfg.Engine
		if tier == TierLowBatch {
			eng = ex.cfg.LowBatch
		}
		// A timing-only engine cannot serve a numeric request
		// (configuration mismatch, not a device fault).
		if eng == nil || !eng.Numeric || (tier == TierTuned && !tryTuned) {
			continue
		}
		if ex.deadlineExceeded(res, ctx) {
			break
		}
		// Memory-pressure admission: reserve the engine's per-thread
		// footprint for the attempt window.
		if alloc != nil {
			if err := alloc.Alloc(eng.PerThreadMemBytes()); err != nil {
				ex.count(func(s *Stats) { s.AllocRejects++ })
				if tier == TierTuned {
					ex.recordPrimary(false)
				}
				continue // engine needs memory it cannot get: degrade
			}
		}
		var ok bool
		ok, exhausted = ex.tryTierBatch(eng, ctx, xs, runIndex, res)
		if alloc != nil {
			alloc.Free(eng.PerThreadMemBytes())
		}
		if exhausted {
			// A layer-boundary check proved the budget unmeetable: not an
			// engine fault, so the breaker and tier-failure counters stay
			// untouched, and no cheaper tier is tried — it runs the same
			// schedule against the same spent budget.
			break
		}
		if tier == TierTuned {
			ex.recordPrimary(ok)
		}
		if ok {
			res.Tier = tier
			res.Degraded = tier != TierTuned
			ex.count(func(s *Stats) { s.TierServed[tier]++ })
			ex.setLastTier(tier)
			return res, nil
		}
		ex.count(func(s *Stats) { s.TierFailures[tier]++ })
	}

	if exhausted {
		if !res.DeadlineMiss {
			res.DeadlineMiss = true
			ex.count(func(s *Stats) { s.DeadlineMisses++ })
		}
		ex.count(func(s *Stats) { s.DeadlineAborts++ })
		return nil, fmt.Errorf("serve: batch abandoned mid-graph at %.3gs of a %.3gs budget: %w",
			res.LatencySec, ctx.BudgetSec, ErrDeadlineExceeded)
	}

	// Terminal tier: the FP32 host path, outside the accelerator fault
	// domain. UnoptimizedRun prices the framework's reference execution;
	// it has no batched kernels — every image pays the full reference
	// pass.
	if err := ex.abortLate(res, ctx); err != nil {
		return nil, err
	}
	res.LatencySec += float64(len(xs)) * core.UnoptimizedRun(ex.cfg.Fallback, ex.cfg.Device)
	ex.deadlineExceeded(res, ctx) // count the miss if the fallback pushed us over
	res.Outputs = make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		o, err := ex.ref.infer(x)
		if err != nil {
			return nil, fmt.Errorf("serve: FP32 fallback failed: %w", err)
		}
		res.Outputs[i] = o
	}
	res.Tier = TierFP32
	res.Degraded = true
	ex.count(func(s *Stats) { s.TierServed[TierFP32]++ })
	ex.setLastTier(TierFP32)
	return res, nil
}

// tryTierBatch makes up to maxRetries+1 attempts on one engine — a timed
// pass and one batched inference under the request context —
// accumulating latency (including failed attempts and backoff) into res
// and, on success, the outputs. ok reports whether the tier served the
// request. The second result reports a mid-graph budget abort: the
// layer-boundary guard proved the budget unmeetable, so retrying (or
// degrading) cannot help. The aborted attempt still books its timed-pass
// latency — the abort saves the remaining host-side numeric work, the
// other tiers and the FP32 reference pass, not the already-priced launch
// schedule.
func (ex *Executor) tryTierBatch(eng *core.Engine, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, res *BatchResult) (ok, exhausted bool) {
	cfg := core.RunConfig{Device: ex.cfg.Device, RunIndex: runIndex}
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 && !ex.retryWait(attempt, res, ctx) {
			return false, false
		}
		burned := res.LatencySec
		run, err := eng.RunFaulty(cfg, ex.cfg.Injector)
		res.LatencySec += run.LatencySec
		if err != nil {
			continue
		}
		outs, err := eng.InferBatchCtx(ctx, xs, ex.cfg.Injector, ex.cfg.Device, burned)
		if errors.Is(err, core.ErrBudgetExhausted) {
			return false, true
		}
		if err == nil {
			res.Outputs = outs
			ex.deadlineExceeded(res, ctx) // served, but maybe late: keep the answer, record the miss
			return true, false
		}
	}
	return false, false
}

// PoolBatchResult is one batched fleet request.
type PoolBatchResult struct {
	// Results[i] is the per-image outcome — the same verdicts a batch of
	// xs[i] alone would get, given identical replica answers.
	Results []*PoolResult
	// LatencySec is the batch release time: the latest per-image release.
	LatencySec float64
	// DeadlineMiss reports the batch release time overran the request
	// context's budget: the fleet's own verdict, computed centrally here
	// so every backend reports misses identically.
	DeadlineMiss bool
}

// DoBatchCtx serves one batch through the fleet: hedged quorum dispatch
// with majority voting when PoolConfig.Quorum is set, round-robin with
// failover otherwise, and the FP32 reference tier when no replica can.
// It is the serving route the network front-end's pool backend threads
// its batch budget through (the deadlineflow analyzer enforces that
// choice). Each replica runs once and answers with one batched
// inference; under quorum, majority voting then happens per image over
// the batched outputs. With no injected faults the outputs are
// bit-identical to the serving replica's Engine.Infer per image. The
// supervisor folds one latency observation per replica (one run
// happened) and one divergence vote per image. Under round-robin
// dispatch the context arms core.InferBatchCtx's layer-boundary guard on
// every replica attempt, so a hopeless batch aborts mid-graph; when the
// latency burned by failed replica attempts already exceeds the budget,
// the batch is abandoned with a wrapped ErrDeadlineExceeded instead of
// paying the per-image FP32 reference passes nobody is waiting for. A
// nil context serves unbounded. Apart from a deadline abort, an error is
// only possible from the FP32 reference path itself (a configuration
// bug, not a device fault).
func (p *Pool) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*PoolBatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: pool DoBatchCtx needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: pool DoBatchCtx input %d is nil", i)
		}
	}
	<-p.turn
	defer func() { p.turn <- struct{}{} }()
	var req uint64
	p.locked(func() {
		p.stats.Requests++
		req = p.stats.Requests
	})
	p.advanceRebuilds(req)
	var br *PoolBatchResult
	var err error
	if p.cfg.Quorum {
		br, err = p.serveQuorumBatch(req, xs, runIndex, ctx)
	} else {
		br, err = p.serveRRBatch(req, xs, runIndex, ctx)
	}
	if err != nil {
		return nil, err
	}
	if b := ctx.Budget(); b > 0 && br.LatencySec > b {
		br.DeadlineMiss = true
		p.locked(func() { p.stats.DeadlineMisses++ })
	}
	return br, nil
}

// attempt is one replica's run of the request: the timed pass and one
// batched inference under ctx's layer-boundary guard (a nil ctx leaves
// it unarmed).
func (p *Pool) attempt(r *replica, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, burnedSec float64) (latSec float64, outs [][]*tensor.Tensor, err error) {
	run, err := r.eng.RunFaulty(core.RunConfig{Device: p.dev, RunIndex: runIndex}, r.inj)
	if err == nil {
		outs, err = r.eng.InferBatchCtx(ctx, xs, r.inj, p.dev, burnedSec)
	}
	return run.LatencySec, outs, err
}

// batchBudgetExpired decides the pre-FP32 abort: a deadline-carrying
// batch whose burned latency has already consumed the budget is
// abandoned rather than degraded.
func (p *Pool) batchBudgetExpired(burnedSec float64, ctx *rtctx.Request) error {
	if !ctx.Aborts() || burnedSec < ctx.BudgetSec {
		return nil
	}
	p.locked(func() { p.stats.DeadlineAborts++ })
	return fmt.Errorf("serve: pool batch abandoned at %.3gs of a %.3gs budget: %w",
		burnedSec, ctx.BudgetSec, ErrDeadlineExceeded)
}

// serveRRBatch dispatches the whole batch to the next active replica in
// rotation, failing over to each remaining active replica once (their
// burned latency accumulates) and finally to the FP32 tier. The request
// context gates the terminal FP32 tier (an already-blown budget abandons
// the batch) and arms the layer-boundary guard inside each replica's
// batched inference, so a hopeless batch aborts mid-graph without trying
// further replicas — every replica runs the same schedule against the
// same spent budget.
func (p *Pool) serveRRBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	active := p.active()
	if len(active) == 0 {
		return p.serveFP32Batch(xs, 0)
	}
	var start int
	p.locked(func() {
		start = p.rr
		p.rr++
	})
	var total float64
	for i := 0; i < len(active); i++ {
		r := active[(start+i)%len(active)]
		if !p.isActive(r) {
			// Quarantined by its own observation earlier this request.
			continue
		}
		lat, outs, err := p.attempt(r, ctx, xs, runIndex, total)
		total += lat
		if errors.Is(err, core.ErrBudgetExhausted) {
			// The replica behaved — the budget ran out. Fold its
			// latency observation without an error mark, then abandon.
			p.locked(func() {
				p.observe(req, r, lat, false)
				p.stats.DeadlineAborts++
				p.stats.DeadlineMisses++
			})
			return nil, fmt.Errorf("serve: pool batch abandoned mid-graph at %.3gs of a %.3gs budget: %w",
				total, ctx.BudgetSec, ErrDeadlineExceeded)
		}
		errored := err != nil
		p.locked(func() {
			p.observe(req, r, lat, errored)
			if errored {
				p.stats.ReplicaFails++
			} else {
				p.stats.RoundRobin++
			}
		})
		if !errored {
			br := &PoolBatchResult{LatencySec: total}
			for _, o := range outs {
				br.Results = append(br.Results, &PoolResult{
					Outputs:    o,
					LatencySec: total,
					Replica:    r.slot,
					BuildID:    r.eng.BuildID,
				})
			}
			return br, nil
		}
	}
	if err := p.batchBudgetExpired(total, ctx); err != nil {
		return nil, err
	}
	return p.serveFP32Batch(xs, total)
}

// bvote is one replica's answer to a quorum request.
type bvote struct {
	r       *replica
	lat     float64
	outs    [][]*tensor.Tensor
	errored bool
	arg     int // argmax on the image being voted on (-1 = none)
}

// serveQuorumBatch runs every active replica once over the batch, then
// votes image by image on the argmax of the first output and serves the
// lowest-slot member of the strict majority. An image's latency is the
// majority-confirmation time: the second-smallest latency among the
// majority (the moment a second replica corroborates the answer). With
// no strict majority the FP32 reference serves the image, after the
// slowest voter has answered; with no voter at all, after the slowest
// replica has given up (the hedged replicas fail concurrently). The
// request context gates that whole-fleet-errored FP32 fallback; the per-image no-majority fallback
// still runs (the majority images already paid for their answers,
// abandoning the stragglers would discard served work). The
// layer-boundary guard is deliberately NOT armed inside the voters'
// inferences: majority voting needs every replica's complete answer, so
// the budget gates dispatch and the terminal tier instead of truncating
// a ballot mid-graph.
func (p *Pool) serveQuorumBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	active := p.active()
	if len(active) == 0 {
		return p.serveFP32Batch(xs, 0)
	}
	votes := make([]bvote, 0, len(active))
	var maxLat, gaveUp float64 // slowest voter's answer, slowest replica's failure
	for _, r := range active {
		lat, outs, err := p.attempt(r, nil, xs, runIndex, 0)
		v := bvote{r: r, lat: lat, outs: outs, errored: err != nil || len(outs) != len(xs)}
		if v.errored {
			p.locked(func() { p.stats.ReplicaFails++ })
			gaveUp = max(gaveUp, v.lat)
		} else {
			maxLat = max(maxLat, v.lat)
		}
		votes = append(votes, v)
	}
	// Errored-ness is per replica, so the same voters (slot order) vote
	// on every image.
	voters := make([]*bvote, 0, len(votes))
	for i := range votes {
		if !votes[i].errored {
			voters = append(voters, &votes[i])
		}
	}
	if len(voters) == 0 {
		// Every replica errored: the batch is headed for the FP32 tier,
		// which starts once the slowest replica has given up.
		maxLat = gaveUp
		if err := p.batchBudgetExpired(gaveUp, ctx); err != nil {
			p.locked(func() {
				for i := range votes {
					v := &votes[i]
					p.observe(req, v.r, v.lat, v.errored)
				}
			})
			return nil, err
		}
	}

	br := &PoolBatchResult{Results: make([]*PoolResult, len(xs))}
	for img, x := range xs {
		for _, v := range voters {
			v.arg = -1
			if o := v.outs[img]; len(o) > 0 {
				v.arg = argmax(o[0])
			}
		}

		// Strict-majority argmax; at most one can hold it, so first-found
		// is the answer.
		majArg, majority := -1, []*bvote(nil)
		for _, v := range voters {
			n := 0
			for _, w := range voters {
				if w.arg == v.arg {
					n++
				}
			}
			if 2*n > len(voters) {
				majArg = v.arg
				for _, w := range voters {
					if w.arg == majArg {
						majority = append(majority, w)
					}
				}
				break
			}
		}

		// Divergence signal, per image in slot order (each image of the
		// batch is one quorum vote's worth of evidence). Disagreement is
		// measured against the majority when one exists, else against
		// the FP32 reference.
		var refArg = -1
		if majArg < 0 && len(voters) > 0 {
			outs, err := p.ref.infer(x)
			if err == nil && len(outs) > 0 {
				refArg = argmax(outs[0])
			}
		}
		p.locked(func() {
			for _, v := range voters {
				switch {
				case majArg >= 0:
					p.noteDivergence(v.r, v.arg != majArg)
				case refArg >= 0:
					p.noteDivergence(v.r, v.arg != refArg)
				}
			}
		})

		if len(majority) == 0 {
			p.locked(func() { p.stats.NoMajority++ })
			// The hedge failed: the fallback starts once the slowest
			// voter has answered (or, with none, the slowest replica has
			// given up).
			res, err := p.serveFP32(x, maxLat)
			if err != nil {
				return nil, err
			}
			res.Voters = len(voters)
			br.Results[img] = res
		} else {
			// Winner: the lowest slot in the majority (voters are in slot
			// order). Released at the majority-confirmation time.
			winner := majority[0]
			lats := make([]float64, len(majority))
			for i, v := range majority {
				lats[i] = v.lat
			}
			sort.Float64s(lats)
			release := lats[0]
			if len(lats) > 1 {
				release = lats[1]
			}
			p.locked(func() { p.stats.QuorumServed++ })
			br.Results[img] = &PoolResult{
				Outputs:    winner.outs[img],
				LatencySec: release,
				Replica:    winner.r.slot,
				BuildID:    winner.r.eng.BuildID,
				Voters:     len(voters),
				Majority:   len(majority),
			}
		}
		if br.Results[img].LatencySec > br.LatencySec {
			br.LatencySec = br.Results[img].LatencySec
		}
	}

	// One latency observation per replica: the batch was one run each.
	p.locked(func() {
		for i := range votes {
			v := &votes[i]
			p.observe(req, v.r, v.lat, v.errored)
		}
	})
	return br, nil
}

// serveFP32Batch serves every image of the request from the FP32 tier.
func (p *Pool) serveFP32Batch(xs []*tensor.Tensor, baseLat float64) (*PoolBatchResult, error) {
	br := &PoolBatchResult{}
	for _, x := range xs {
		res, err := p.serveFP32(x, baseLat)
		if err != nil {
			return nil, err
		}
		br.Results = append(br.Results, res)
		if res.LatencySec > br.LatencySec {
			br.LatencySec = res.LatencySec
		}
	}
	return br, nil
}
