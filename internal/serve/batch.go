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
	"math"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
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
	// domain; every image pays the full reference pass.
	if err := ex.abortLate(res, ctx); err != nil {
		return nil, err
	}
	res.LatencySec += float64(len(xs)) * ex.ref.sec
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
	for try := 0; try <= maxRetries; try++ {
		if try > 0 && !ex.retryWait(try, res, ctx) {
			return false, false
		}
		lat, outs, err := attempt(eng, ex.cfg.Injector, ex.cfg.Device, ctx, xs, runIndex, res.LatencySec)
		res.LatencySec += lat
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

// attempt is one run of a batch on one engine: the timed pass, then one
// batched inference under ctx. burnedSec is the latency the request had
// paid before this attempt; the layer guard an aborting ctx arms charges
// from there. latSec is the timed pass's latency, also when it failed.
func attempt(eng *core.Engine, inj core.FaultInjector, dev *gpusim.Device, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, burnedSec float64) (latSec float64, outs [][]*tensor.Tensor, err error) {
	run, err := eng.RunFaulty(core.RunConfig{Device: dev, RunIndex: runIndex}, inj)
	if err == nil {
		outs, err = eng.InferBatchCtx(ctx, xs, inj, dev, burnedSec)
	}
	return run.LatencySec, outs, err
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
// with majority voting, and the FP32 reference tier when no replica can.
// It is the serving route the network front-end's pool backend threads
// its batch budget through (the deadlineflow analyzer enforces that
// choice). Each active replica runs once and answers with one batched
// inference; majority voting then happens per image over the batched
// outputs. With no injected faults the outputs are bit-identical to the
// serving replica's Engine.Infer per image. The supervisor folds one
// latency observation per replica (one run happened) and one divergence
// vote per image. The context's budget never truncates a ballot: a
// batch past it is answered late with DeadlineMiss set, and abandoned
// with a wrapped ErrDeadlineExceeded only when every replica errored and
// the slowest one gave up after the budget, instead of paying the
// per-image FP32 reference passes nobody is waiting for. A nil context
// serves unbounded. Apart from a deadline abort, an error is only
// possible from the FP32 reference path itself (a configuration bug,
// not a device fault).
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
	br, err := p.serveQuorumBatch(req, xs, runIndex, ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Overran(br.LatencySec) {
		br.DeadlineMiss = true
		p.locked(func() { p.stats.DeadlineMisses++ })
	}
	return br, nil
}

// bvote is one replica's answer to a request.
type bvote struct {
	r       *replica
	lat     float64
	outs    [][]*tensor.Tensor
	errored bool
	arg     int // argmax on the image being voted on (-1 = none)
}

// serveQuorumBatch runs every active replica once over the batch — the
// whole run: a ballot needs every voter's complete answer, so no layer
// guard is armed — then votes image by image on the argmax of the first
// output and serves the lowest-slot member of the strict majority. An
// image's latency is the majority-confirmation time: the second-smallest
// latency among the majority (the moment a second replica corroborates
// the answer). With no strict majority the FP32 reference serves the
// image, after the slowest voter has answered; with no voter at all,
// after the slowest replica has given up (the hedged replicas fail
// concurrently), and at once when no replica is active. The request
// context gates that voterless FP32 fallback; the per-image no-majority
// fallback still runs (the majority images already paid for their
// answers, abandoning the stragglers would discard served work).
func (p *Pool) serveQuorumBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	votes := make([]bvote, 0, len(p.reps))
	var maxLat, gaveUp float64 // slowest voter's answer, slowest replica's failure
	for _, r := range p.reps {
		if !p.isActive(r) {
			continue
		}
		lat, outs, err := attempt(r.eng, r.inj, p.reg.dev, nil, xs, runIndex, 0)
		v := bvote{r: r, lat: lat, outs: outs, errored: err != nil || len(outs) != len(xs)}
		if v.errored {
			p.locked(func() { p.stats.ReplicaFails++ })
			gaveUp = max(gaveUp, v.lat)
		} else {
			maxLat = max(maxLat, v.lat)
		}
		votes = append(votes, v)
	}
	// One latency observation per replica: the batch was one run each.
	observeAll := func() {
		for i := range votes {
			p.observe(req, votes[i].r, votes[i].lat, votes[i].errored)
		}
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
		// The batch is headed for the FP32 tier, which starts once the
		// slowest replica has given up.
		maxLat = gaveUp
		if ctx.Aborts() && ctx.Overran(gaveUp) {
			p.locked(func() {
				observeAll()
				p.stats.DeadlineAborts++
			})
			return nil, fmt.Errorf("serve: pool batch abandoned at %.3gs of a %.3gs budget: %w",
				gaveUp, ctx.BudgetSec, ErrDeadlineExceeded)
		}
	}

	br := &PoolBatchResult{Results: make([]*PoolResult, len(xs))}
	for img, x := range xs {
		for _, v := range voters {
			v.arg = -1
			if o := v.outs[img]; len(o) > 0 {
				v.arg = o[0].Argmax()
			}
		}

		// Strict-majority argmax; at most one class can hold it, so the
		// first voter found holding it is the winner: the lowest slot in
		// the majority (voters are in slot order).
		var winner *bvote
		for _, v := range voters {
			n := 0
			for _, w := range voters {
				if w.arg == v.arg {
					n++
				}
			}
			if 2*n > len(voters) {
				winner = v
				break
			}
		}
		majArg := -1
		if winner != nil {
			majArg = winner.arg
		}

		// When no majority names a class, the FP32 reference arbitrates
		// the divergence vote and, with no majority at all, answers the
		// image: one pass does both.
		var ref []*tensor.Tensor
		var refErr error
		refArg := -1
		if majArg < 0 {
			if ref, refErr = p.ref.infer(x); refErr == nil && len(ref) > 0 {
				refArg = ref[0].Argmax()
			}
		}
		// Divergence signal, per image in slot order (each image of the
		// batch is one quorum vote's worth of evidence), measured against
		// the majority when one exists, else against the reference.
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

		res := &PoolResult{Voters: len(voters)}
		if winner == nil {
			if len(votes) > 0 {
				p.locked(func() { p.stats.NoMajority++ })
			}
			if refErr != nil {
				return nil, fmt.Errorf("serve: pool FP32 fallback: %w", refErr)
			}
			// The hedge failed: the reference answers once the slowest
			// voter has (or, with none, the slowest replica has given up).
			res.Outputs, res.LatencySec = ref, maxLat+p.ref.sec
			res.Replica, res.BuildID, res.Fallback = -1, -1, true
			p.locked(func() { p.stats.FP32Served++ })
		} else {
			// Released when a second replica corroborates the answer: the
			// second-smallest majority latency (a majority of one, at once).
			first, second := math.Inf(1), math.Inf(1)
			for _, v := range voters {
				if v.arg != majArg {
					continue
				}
				res.Majority++
				if v.lat < first {
					first, second = v.lat, first
				} else if v.lat < second {
					second = v.lat
				}
			}
			res.Outputs, res.LatencySec = winner.outs[img], second
			if res.Majority == 1 {
				res.LatencySec = first
			}
			res.Replica, res.BuildID = winner.r.slot, winner.r.eng.BuildID
			p.locked(func() { p.stats.QuorumServed++ })
		}
		br.Results[img] = res
		br.LatencySec = max(br.LatencySec, res.LatencySec)
	}
	p.locked(observeAll)
	return br, nil
}
