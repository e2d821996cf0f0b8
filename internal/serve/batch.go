// The serving body: Pool.DoBatchCtx, the one entry point, written once
// over a batch on core.Engine.InferBatchCtx: one timed pass and one
// batched numeric inference per replica instead of one of each per
// image, so launch and voting overhead amortize across the batch. A
// batch holds at least one image and no nil one; a single request is a
// batch of one. Per-image numerics do not depend on the batch: on a
// pristine fleet the batch outputs are bit-identical to serving each
// image individually.
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

// attempt is one replica's run of a batch: memory-pressure admission
// when the injector is an Allocator (the engine's per-thread footprint
// is reserved for the attempt), the timed pass, then one batched
// inference under ctx, whose layer guard an aborting ctx arms. latSec
// is the timed pass's latency, also when it failed; a refused
// reservation fails before any launch, at zero latency.
func attempt(eng *core.Engine, inj core.FaultInjector, dev *gpusim.Device, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (latSec float64, outs [][]*tensor.Tensor, err error) {
	if alloc, ok := inj.(Allocator); ok {
		bytes := eng.PerThreadMemBytes()
		if err := alloc.Alloc(bytes); err != nil {
			return 0, nil, err
		}
		defer alloc.Free(bytes)
	}
	run, err := eng.RunFaulty(core.RunConfig{Device: dev, RunIndex: runIndex}, inj)
	if err == nil {
		outs, err = eng.InferBatchCtx(ctx, xs, inj, dev, 0)
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
// It is the serving route the network front-end's backend threads its
// batch budget through (the deadlineflow analyzer enforces that
// choice). Each active replica runs once and answers with one batched
// inference; majority voting then happens per image over the batched
// outputs. With no injected faults the outputs are bit-identical to the
// serving replica's Engine.Infer per image, and a fleet of one answers
// at its replica's Engine.Run latency. The supervisor folds one latency
// observation per replica (one run happened) and one divergence vote per
// image. A budget that does not abort only records misses: the batch is
// answered late with DeadlineMiss set. An aborting context
// (rtctx.Request.Aborts) arms each replica's layer-boundary guard, so a
// replica whose expected schedule cannot fit the budget stops mid-graph;
// a stopped replica is not a fault (see serveQuorumBatch). The batch is
// abandoned with a wrapped ErrDeadlineExceeded, before paying the
// per-image FP32 reference passes nobody is waiting for, when every
// active replica was stopped, or when no replica answered and the
// slowest gave up after the budget. A nil context serves unbounded.
// Apart from a deadline abort, an error is only possible from the FP32
// reference path itself (a configuration bug, not a device fault).
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
	errored bool // failed outright: a replica fault
	stopped bool // stopped by the layer guard: no vote, and no fault
	arg     int  // argmax on the image being voted on (-1 = none)
}

// serveQuorumBatch runs every active replica once over the batch, then
// votes image by image on the argmax of the first output and serves the
// lowest-slot member of the strict majority. An image's latency is the
// majority-confirmation time: the second-smallest latency among the
// majority (the moment a second replica corroborates the answer). With
// no strict majority the FP32 reference serves the image, after the
// slowest voter has answered; with no voter at all, after the slowest
// replica has given up (the hedged replicas fail concurrently), and at
// once when no replica is active. A replica the layer guard stopped
// proved only that the budget is too short for its schedule: it casts no
// vote, but it neither counts as a ReplicaFail nor takes a strike, and
// its timed pass is observed like any answer's. The request context
// gates the voterless FP32 fallback; the per-image no-majority fallback
// still runs (the majority images already paid for their answers,
// abandoning the stragglers would discard served work).
func (p *Pool) serveQuorumBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	// Ballots live on the stack for fleets of up to four replicas.
	var votesBuf [4]bvote
	var votersBuf [4]bvote
	votes := votesBuf[:0]
	var maxLat, gaveUp float64 // slowest voter's answer, slowest replica's failure or stop
	stopped := 0
	for _, r := range p.reps {
		if !p.isActive(r) {
			continue
		}
		lat, outs, err := attempt(r.eng, r.inj, p.reg.dev, ctx, xs, runIndex)
		v := bvote{r: r, lat: lat, outs: outs}
		switch {
		case errors.Is(err, core.ErrBudgetExhausted):
			v.stopped = true
			stopped++
			gaveUp = max(gaveUp, v.lat)
		case err != nil || len(outs) != len(xs):
			v.errored = true
			p.locked(func() { p.stats.ReplicaFails++ })
			gaveUp = max(gaveUp, v.lat)
		default:
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
	// Answering is per replica, so the same voters (slot order) vote on
	// every image.
	voters := votersBuf[:0]
	for _, v := range votes {
		if !v.errored && !v.stopped {
			voters = append(voters, v)
		}
	}
	if len(voters) == 0 {
		// The batch is headed for the FP32 tier, which starts once the
		// slowest replica has given up.
		maxLat = gaveUp
		allStopped := stopped > 0 && stopped == len(votes)
		if ctx.Aborts() && (allStopped || ctx.Overran(gaveUp)) {
			p.locked(func() {
				observeAll()
				p.stats.DeadlineAborts++
			})
			where := "at"
			if allStopped {
				where = "mid-graph at"
			}
			return nil, fmt.Errorf("serve: pool batch abandoned %s %.3gs of a %.3gs budget: %w",
				where, gaveUp, ctx.BudgetSec, ErrDeadlineExceeded)
		}
	}

	br := &PoolBatchResult{Results: make([]*PoolResult, len(xs))}
	results := make([]PoolResult, len(xs)) // one block for the whole batch
	for img, x := range xs {
		for i := range voters {
			v := &voters[i]
			v.arg = -1
			if o := v.outs[img]; len(o) > 0 {
				v.arg = o[0].Argmax()
			}
		}

		// Strict-majority argmax; at most one class can hold it, so the
		// first voter found holding it is the winner: the lowest slot in
		// the majority (voters are in slot order).
		var winner *bvote
		for i := range voters {
			v := &voters[i]
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

		res := &results[img]
		res.Voters = len(voters)
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
