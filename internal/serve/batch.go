// The serving bodies. The executor's degradation chain (doBatch) and the
// fleet's dispatch (Pool.dispatch) are written once, over a batch, on
// core.Engine.InferBatchCtx: one timed pass and one batched numeric
// inference per attempt instead of one of each per image, so launch,
// retry and voting overhead amortize across the batch. The four entry
// points are adapters over them: DoBatchCtx requires at least one image;
// DoCtx hands over one image as a batch of one, or no image at all for a
// timed-only request — no numeric pass, one reference pass priced if the
// FP32 tier serves, quorum as hedging without a vote. Per-image numerics
// do not depend on the batch: on a pristine executor or fleet the batch
// outputs are bit-identical to serving each image individually.
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
	// DeadlineMiss reports the accumulated latency exceeded the deadline.
	DeadlineMiss bool
}

// DoBatchCtx serves one batched numeric request down the degradation
// chain: the coalescing front-end's serving route, where the batch
// context carries the tightest member deadline. Each tier attempt is a
// single timed pass over the engine plan plus one batched inference; a
// fault anywhere in the batch fails the whole attempt (the batch rides
// one launch sequence). The context's budget clamps through the
// configured DeadlineSec; an aborting context (rtctx.Request.Aborts)
// abandons an expired batch with a wrapped ErrDeadlineExceeded before
// the FP32 tier instead of answering late, and additionally arms the
// layer-boundary guard (core.InferBatchCtx), so a batch whose burned
// latency plus remaining expected schedule proves it hopeless stops
// mid-graph with the same error. A nil context serves unbounded. On a
// pristine executor, Outputs[i] is bit-identical to DoCtx on xs[i].
func (ex *Executor) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: DoBatchCtx needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: DoBatchCtx input %d is nil", i)
		}
	}
	res, outs, err := ex.doBatch(ctx, xs, runIndex)
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Outputs:      outs,
		LatencySec:   res.LatencySec,
		Tier:         res.Tier,
		Retries:      res.Retries,
		Degraded:     res.Degraded,
		DeadlineMiss: res.DeadlineMiss,
	}, nil
}

// doBatch is the one degradation chain. An empty xs is a timed-only
// request: every tier is eligible (numeric or not), no inference runs,
// and the FP32 tier prices a single reference pass. The request-level
// verdicts come back in the Result (by value, so the batch path keeps it
// off the heap); the per-image outputs ride beside it for the entry
// point to shape.
func (ex *Executor) doBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (Result, [][]*tensor.Tensor, error) {
	deadlineSec, abort := ex.effectiveDeadline(ctx.Budget()), ctx.Aborts()
	ex.count(func(s *Stats) { s.Requests++ })
	res := &Result{Tier: TierFP32, deadlineSec: deadlineSec}

	// The normalized context the accelerated tiers dispatch through:
	// armed only on the abort paths, so every other caller keeps its
	// exact injector draw order and answer-late contract.
	var cctx *rtctx.Request
	if abort && deadlineSec > 0 {
		cctx = rtctx.WithBudget(deadlineSec)
	}

	tryTuned := ex.admitTuned()
	alloc, _ := ex.cfg.Injector.(Allocator)
	exhausted := false

	for tier := TierTuned; tier < TierFP32; tier++ {
		eng := ex.cfg.Engine
		if tier == TierLowBatch {
			eng = ex.cfg.LowBatch
		}
		if eng == nil || (tier == TierTuned && !tryTuned) {
			continue
		}
		// A numeric request needs a numeric engine; a timing-only tier
		// cannot serve it (configuration mismatch, not a device fault).
		if len(xs) > 0 && !eng.Numeric {
			continue
		}
		if ex.deadlineExceeded(res) {
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
		var outs [][]*tensor.Tensor
		var ok bool
		outs, ok, exhausted = ex.tryTierBatch(eng, cctx, xs, runIndex, res)
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
			return *res, outs, nil
		}
		ex.count(func(s *Stats) { s.TierFailures[tier]++ })
	}

	if exhausted {
		if !res.DeadlineMiss {
			res.DeadlineMiss = true
			ex.count(func(s *Stats) { s.DeadlineMisses++ })
		}
		ex.count(func(s *Stats) { s.DeadlineAborts++ })
		return Result{}, nil, fmt.Errorf("serve: batch abandoned mid-graph at %.3gs of a %.3gs budget: %w",
			res.LatencySec, res.deadlineSec, ErrDeadlineExceeded)
	}

	// Terminal tier: the FP32 host path, outside the accelerator fault
	// domain. UnoptimizedRun prices the framework's reference execution;
	// it has no batched kernels — every image pays the full reference
	// pass, and a timed-only request prices one.
	if err := ex.abortLate(res, abort); err != nil {
		return Result{}, nil, err
	}
	res.LatencySec += float64(max(len(xs), 1)) * core.UnoptimizedRun(ex.cfg.Fallback, ex.cfg.Device)
	ex.deadlineExceeded(res) // count the miss if the fallback pushed us over
	outs := make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		o, err := ex.ref.infer(x)
		if err != nil {
			return Result{}, nil, fmt.Errorf("serve: FP32 fallback failed: %w", err)
		}
		outs[i] = o
	}
	res.Tier = TierFP32
	res.Degraded = true
	ex.count(func(s *Stats) { s.TierServed[TierFP32]++ })
	ex.setLastTier(TierFP32)
	return *res, outs, nil
}

// tryTierBatch makes up to MaxRetries+1 attempts on one engine — a timed
// pass and, for a numeric request, one batched inference under the
// normalized request context — accumulating latency (including failed
// attempts and backoff) into res. ok reports whether the tier served the
// request. The third result reports a mid-graph budget abort: the
// layer-boundary guard proved the budget unmeetable, so retrying (or
// degrading) cannot help. The aborted attempt still books its timed-pass
// latency — the abort saves the remaining host-side numeric work, the
// other tiers and the FP32 reference pass, not the already-priced launch
// schedule.
func (ex *Executor) tryTierBatch(eng *core.Engine, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, res *Result) (outs [][]*tensor.Tensor, ok, exhausted bool) {
	cfg := core.RunConfig{
		Device:        ex.cfg.Device,
		IncludeMemcpy: ex.cfg.IncludeMemcpy,
		RunIndex:      runIndex,
	}
	for attempt := 0; attempt <= ex.cfg.MaxRetries; attempt++ {
		if attempt > 0 && !ex.retryWait(attempt, res) {
			return nil, false, false
		}
		burned := res.LatencySec
		run, err := eng.RunFaulty(cfg, ex.cfg.Injector)
		res.LatencySec += run.LatencySec
		if err == nil && len(xs) > 0 {
			outs, err = eng.InferBatchCtx(ctx, xs, ex.cfg.Injector, ex.cfg.Device, burned)
			if errors.Is(err, core.ErrBudgetExhausted) {
				return nil, false, true
			}
		}
		if err == nil {
			ex.deadlineExceeded(res) // served, but maybe late: keep the answer, record the miss
			return outs, true, false
		}
	}
	return nil, false, false
}

// PoolBatchResult is one batched fleet request.
type PoolBatchResult struct {
	// Results[i] is the per-image outcome — the same verdicts DoCtx would
	// produce for xs[i] given identical replica answers.
	Results []*PoolResult
	// LatencySec is the batch release time: the latest per-image release.
	LatencySec float64
	// DeadlineMiss reports the batch release time overran the request
	// context's budget: the fleet's own verdict, computed centrally in
	// dispatch so every backend reports misses identically.
	DeadlineMiss bool
}

// DoBatchCtx serves one batch through the fleet: the serving route the
// network front-end's pool backend threads its batch budget through (the
// deadlineflow analyzer enforces that choice). Each replica runs once
// and answers with one batched inference; under quorum, majority voting
// then happens per image over the batched outputs. With no injected
// faults the per-image winners and outputs are bit-identical to serving
// each image with DoCtx. The supervisor folds one latency observation
// per replica (one run happened) and one divergence vote per image.
// Under round-robin dispatch the context arms core.InferBatchCtx's
// layer-boundary guard on every replica attempt, so a hopeless batch
// aborts mid-graph; when the latency burned by failed replica attempts
// already exceeds the budget, the batch is abandoned with a wrapped
// ErrDeadlineExceeded instead of paying the per-image FP32 reference
// passes nobody is waiting for. A nil context serves unbounded.
func (p *Pool) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*PoolBatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: pool DoBatchCtx needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: pool DoBatchCtx input %d is nil", i)
		}
	}
	return p.dispatch(ctx, xs, runIndex)
}

// dispatch is the one fleet serving body. An empty xs is a timed-only
// request: replicas run their timed pass only and the result has a
// single slot without outputs (see slots). The DeadlineMiss verdict is
// computed here — once, against the context budget — so executor- and
// pool-backed front-ends report misses identically.
func (p *Pool) dispatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*PoolBatchResult, error) {
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

// slots is the per-result view of a request: its images, or — for a
// timed-only request — one slot with no image.
func slots(xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return make([]*tensor.Tensor, 1)
	}
	return xs
}

// attempt is one replica's run of the request: the timed pass and, for a
// numeric request, one batched inference under ctx's layer-boundary
// guard (a nil ctx leaves it unarmed). outs holds one entry per slot; a
// timed-only request's single slot has no outputs.
func (p *Pool) attempt(r *replica, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, burnedSec float64) (latSec float64, outs [][]*tensor.Tensor, err error) {
	run, err := r.eng.RunFaulty(p.runCfg(runIndex), r.inj)
	switch {
	case err != nil:
	case len(xs) == 0:
		outs = make([][]*tensor.Tensor, 1)
	default:
		outs, err = r.eng.InferBatchCtx(ctx, xs, r.inj, p.cfg.Device, burnedSec)
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
// slowest voter has answered. The request context gates the
// whole-fleet-errored FP32 fallback; the per-image no-majority fallback
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
	imgs := slots(xs)
	votes := make([]bvote, 0, len(active))
	var maxLat, burned float64
	for _, r := range active {
		lat, outs, err := p.attempt(r, nil, xs, runIndex, 0)
		v := bvote{r: r, lat: lat, outs: outs, errored: err != nil || len(outs) != len(imgs)}
		if v.errored {
			p.locked(func() { p.stats.ReplicaFails++ })
			burned += v.lat
		} else if v.lat > maxLat {
			maxLat = v.lat
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
		// Every replica errored: the batch is headed for the FP32 tier
		// with nothing but burned hedge latency to show for it.
		if err := p.batchBudgetExpired(burned, ctx); err != nil {
			p.locked(func() {
				for i := range votes {
					v := &votes[i]
					p.observe(req, v.r, v.lat, v.errored)
				}
			})
			return nil, err
		}
	}

	br := &PoolBatchResult{Results: make([]*PoolResult, len(imgs))}
	for img, x := range imgs {
		for _, v := range voters {
			v.arg = -1
			if o := v.outs[img]; len(o) > 0 {
				v.arg = argmax(o[0])
			}
		}

		// Strict-majority argmax; at most one can hold it, so first-found
		// is the answer. With no numeric payload every voter's -1 agrees
		// (hedging without voting).
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
		var refOuts []*tensor.Tensor
		if x != nil && majArg < 0 && len(voters) > 0 {
			outs, err := p.ref.infer(x)
			if err == nil && len(outs) > 0 {
				refOuts = outs
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
			// voter has answered.
			res, err := p.serveFP32(x, maxLat)
			if err != nil {
				return nil, err
			}
			if res.Outputs == nil && refOuts != nil {
				res.Outputs = refOuts
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

// serveFP32Batch serves every slot of the request from the FP32 tier.
func (p *Pool) serveFP32Batch(xs []*tensor.Tensor, baseLat float64) (*PoolBatchResult, error) {
	br := &PoolBatchResult{}
	for _, x := range slots(xs) {
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
