package faults

import (
	"sync"

	"edgeinfer/internal/fixrand"
)

// Cluster-layer fault injection: links between pipeline nodes and the
// nodes themselves. The design splits the modes the same way NetPlan
// does — probabilistic faults (link delay, link drop) draw from their
// own fixrand stream, while window faults (link partition, node crash,
// node hang, restart) are pure functions of (stage|link, frame) and
// consume no draws. A cluster injector therefore never shifts the
// device or network fault streams (they are keyed separately), and
// enabling a window fault never shifts the cluster stream either, so a
// chaos run's link-delay sequence is identical with and without the
// stage kill — the property the recovery bit-identity check leans on.

// ClusterPlan is a declarative cluster fault scenario. Stage and link
// indices are positions in the pipeline's partition (stage s sends to
// stage s+1 over link s); negative indices disable the fault, which is
// why plans should start from NewClusterPlan rather than a zero
// struct.
type ClusterPlan struct {
	// Seed names the scenario; with the per-injector scenario key it
	// selects the fixrand stream ("faults/cluster/<seed>/<scenario>").
	Seed string

	// LinkDelayRate is the per-transfer probability the payload pays an
	// extra LinkDelaySec of propagation time.
	LinkDelayRate float64
	LinkDelaySec  float64

	// LinkDropRate is the per-transfer probability the payload is lost;
	// the sender still holds the activation, so a drop is retryable.
	LinkDropRate float64

	// PartitionLink blackholes link PartitionLink for frames
	// [PartitionFrom, PartitionFrom+PartitionFrames): every transfer in
	// the window is dropped, deterministically and without a draw.
	PartitionLink   int
	PartitionFrom   int
	PartitionFrames int

	// CrashStage kills the node serving that stage from frame
	// CrashAtFrame on — the mid-stream stage death. With
	// RestartAfterFrames > 0 the node comes back that many frames
	// later (as standby capacity, not automatically as the stage
	// owner); 0 means dead for the rest of the run.
	CrashStage         int
	CrashAtFrame       int
	RestartAfterFrames int

	// HangStage stalls that stage's node for HangSec extra seconds on
	// each of frames [HangAtFrame, HangAtFrame+HangFrames): no error,
	// just latency — the gray failure only a watchdog can see.
	HangStage   int
	HangAtFrame int
	HangFrames  int
	HangSec     float64
}

// NewClusterPlan returns a plan with every fault disabled (all window
// indices at -1) so callers enable only what the scenario needs.
func NewClusterPlan(seed string) ClusterPlan {
	return ClusterPlan{Seed: seed, PartitionLink: -1, CrashStage: -1, HangStage: -1}
}

// ClusterChaos is the cluster chaos-soak scenario: mild probabilistic
// link noise plus a mid-stream stage kill with a late restart, the
// headline robustness case (cluster.TestTranscriptPinned soaks it).
func ClusterChaos(seed string, crashStage, crashAtFrame int) ClusterPlan {
	p := NewClusterPlan(seed)
	p.LinkDelayRate = 0.05
	p.LinkDelaySec = 1e-3
	p.LinkDropRate = 0.02
	p.CrashStage = crashStage
	p.CrashAtFrame = crashAtFrame
	p.RestartAfterFrames = 40
	return p
}

// Zero reports whether the plan injects nothing.
func (p ClusterPlan) Zero() bool {
	return p.LinkDelayRate == 0 && p.LinkDropRate == 0 &&
		p.PartitionLink < 0 && p.CrashStage < 0 && p.HangStage < 0
}

// New creates a cluster injector for the plan; scenario disambiguates
// several injectors drawn from one plan, mirroring Plan.New.
func (p ClusterPlan) New(scenario string) *ClusterInjector {
	return &ClusterInjector{
		plan: p,
		rng:  fixrand.NewKeyed("faults/cluster/" + p.Seed + "/" + scenario),
	}
}

// ClusterInjector replays a ClusterPlan deterministically. Safe for
// concurrent use, though the pipeline executor consults it from one
// goroutine in frame order — the contract that makes replays exact.
type ClusterInjector struct {
	plan ClusterPlan

	mu        sync.Mutex
	rng       *fixrand.Source
	crashSeen bool
	counters  Counters
}

// Plan returns the injector's plan.
func (in *ClusterInjector) Plan() ClusterPlan { return in.plan }

// Counters returns a snapshot of the fault tallies.
func (in *ClusterInjector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counters
}

// Transfer is the per-hop verdict for sending frame's activation
// across link: extra delay seconds and whether the payload was lost.
// A partition window drops without drawing; the probabilistic delay
// and drop mechanisms each draw only when their rate is positive.
// Retries consult Transfer again, so a resend can be lost again.
func (in *ClusterInjector) Transfer(link, frame int) (delaySec float64, drop bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.PartitionLink >= 0 && link == in.plan.PartitionLink &&
		frame >= in.plan.PartitionFrom && frame < in.plan.PartitionFrom+in.plan.PartitionFrames {
		in.counters.Add(KindLinkPartition, 1)
		return 0, true
	}
	if in.plan.LinkDelayRate > 0 && in.rng.Float64() < in.plan.LinkDelayRate {
		delaySec = in.plan.LinkDelaySec
		in.counters.Add(KindLinkDelay, 1)
	}
	if in.plan.LinkDropRate > 0 && in.rng.Float64() < in.plan.LinkDropRate {
		drop = true
		in.counters.Add(KindLinkDrop, 1)
	}
	return delaySec, drop
}

// NodeCrashed reports whether the node serving stage is dead when
// frame reaches it. Deterministic, no draws. The crash is counted
// once, on first detection.
func (in *ClusterInjector) NodeCrashed(stage, frame int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plan
	if p.CrashStage < 0 || stage != p.CrashStage || frame < p.CrashAtFrame {
		return false
	}
	if p.RestartAfterFrames > 0 && frame >= p.CrashAtFrame+p.RestartAfterFrames {
		return false
	}
	if !in.crashSeen {
		in.crashSeen = true
		in.counters.Add(KindNodeCrash, 1)
	}
	return true
}

// NodeRestarted reports whether the crashed node has come back by
// frame — eligible as standby capacity again, not reinstated as the
// stage owner.
func (in *ClusterInjector) NodeRestarted(frame int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plan
	return p.CrashStage >= 0 && p.RestartAfterFrames > 0 &&
		frame >= p.CrashAtFrame+p.RestartAfterFrames
}

// NodeHangSec returns the extra stall the stage's node pays at frame:
// HangSec inside the hang window, 0 outside. Deterministic, no draws.
func (in *ClusterInjector) NodeHangSec(stage, frame int) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plan
	if p.HangStage < 0 || stage != p.HangStage ||
		frame < p.HangAtFrame || frame >= p.HangAtFrame+p.HangFrames {
		return 0
	}
	in.counters.Add(KindNodeHang, 1)
	return p.HangSec
}
