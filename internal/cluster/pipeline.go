package cluster

import (
	"errors"
	"fmt"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// The pipeline's transfer and heartbeat policy. Its stage watchdog trips
// at serve.LatencyThreshold and the supervisor confirms a suspect node
// at its second consecutive anomalous heartbeat.
const (
	// maxTransferRetries bounds per-hop resends after a dropped payload.
	maxTransferRetries = 3
	// backoffBaseSec is the first resend's backoff, doubling per attempt
	// and clamped to the frame's remaining budget.
	backoffBaseSec = 0.5e-3
	// heartbeatTimeoutSec is the cost of one missed stage heartbeat.
	heartbeatTimeoutSec = 5e-3
)

// PipelineConfig parameterizes a partitioned pipeline run. Engine and
// Nodes are required; everything else is optional.
type PipelineConfig struct {
	// Engine is the numeric engine whose layer plan is partitioned.
	Engine *core.Engine
	// Nodes are the pipeline candidates, in pipeline order. The
	// partitioner may use fewer stages than nodes; unused nodes join
	// the standby pool.
	Nodes []Node
	// Standby nodes serve no stage until a failover promotes one.
	Standby []Node
	// Links[i] carries stage i's boundary activation to stage i+1;
	// nil defaults to uniform gigabit ethernet. Must cover
	// len(Nodes)-1 positions when set.
	Links []gpusim.Link
	// Injector supplies cluster faults; nil runs fault-free.
	Injector *faults.ClusterInjector
}

// FrameVerdict is one frame's outcome: outputs or an explicit shed,
// never neither.
type FrameVerdict struct {
	Frame int
	// Outputs are the engine outputs (nil when shed).
	Outputs []*tensor.Tensor
	// LatencySec is simulated arrival-to-answer (or arrival-to-shed).
	LatencySec float64
	// Shed marks an explicit no-answer verdict with its Reason:
	// "budget" (rtctx budget exhausted), "link" (transfer retries
	// exhausted), "no-capacity" (no viable owner left for a stage).
	Shed   bool
	Reason string
	// Retries counts transfer resends; HeartbeatMisses counts dead-
	// stage detections this frame paid for.
	Retries         int
	HeartbeatMisses int
}

// Report is one Run's accounting.
type Report struct {
	Partition *Partition
	Frames    []FrameVerdict

	Answered, Shed, Lost int
	Failovers            int // stage handed to a standby node
	Merges               int // stage merged onto an active neighbor (re-partition)

	// CrashDetectFrame is the first frame that observed a dead stage
	// (-1 without one); RecoveryFrames is how many frames later the
	// first clean answer landed, and RecoverySec the simulated time
	// from first missed heartbeat to the replacement node being ready.
	CrashDetectFrame int
	RecoveryFrames   int
	RecoverySec      float64

	// MakespanSec is the last completion time; latencies are per
	// answered frame, in frame order.
	MakespanSec float64
	Latencies   []float64

	Transcript []string
	Counters   faults.Counters
}

// Pipeline is a partitioned pipeline bound to its cluster state. Not
// safe for concurrent Runs: the executor is deterministic simulated
// time driven from one goroutine.
type Pipeline struct {
	eng   *core.Engine
	nodes []Node // pipeline nodes then standbys; supervisor indexes this
	links []gpusim.Link
	part  *Partition
	sup   *serve.Supervisor

	stages    []Stage // mutable copy; Node reassigned on failover
	origOwner []int
	nodeFree  []float64
	inj       *faults.ClusterInjector

	crashedNode int
	detectT     float64
	deadReason  string
	report      *Report
}

// New partitions the engine across the nodes and builds the executor.
func New(c PipelineConfig) (*Pipeline, error) {
	if c.Engine == nil || len(c.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: pipeline needs an engine and at least one node")
	}
	links := c.Links
	if links == nil {
		links = UniformLinks(max(len(c.Nodes)-1, 0), gpusim.GigabitEthernet())
	}
	part, err := PartitionEngine(c.Engine, c.Nodes, links)
	if err != nil {
		return nil, err
	}
	nodes := append(append([]Node{}, c.Nodes...), c.Standby...)
	sup := serve.NewSupervisor("frame", len(nodes), func(m int) string {
		return fmt.Sprintf("node %d (%s)", m, nodes[m].Name)
	})
	p := &Pipeline{
		eng:         c.Engine,
		nodes:       nodes,
		links:       links,
		part:        part,
		sup:         sup,
		stages:      append([]Stage{}, part.Stages...),
		nodeFree:    make([]float64, len(nodes)),
		inj:         c.Injector,
		crashedNode: -1,
	}
	p.origOwner = make([]int, len(p.stages))
	for i, st := range p.stages {
		p.origOwner[i] = st.Node
	}
	return p, nil
}

// Partition returns the chosen partition.
func (p *Pipeline) Partition() *Partition { return p.part }

// Transcript returns a copy of the supervisor transcript so far.
func (p *Pipeline) Transcript() []string { return p.sup.Transcript() }

// Run streams the frames through the pipeline with no per-frame
// budget: RunCtx(nil, xs).
func (p *Pipeline) Run(xs []*tensor.Tensor) (*Report, error) {
	return p.RunCtx(nil, xs)
}

// RunCtx streams the frames through the pipeline, arriving open-loop at
// the partition's bottleneck period (steady state, no queue growth).
// ctx is the per-frame budget template: every frame gets ctx's budget
// measured from its own arrival, accounted hop by hop (queueing,
// heartbeat waits, compute, transfer, backoff all charge it); a nil ctx
// leaves frames unbounded. Every frame is answered or explicitly shed —
// Report.Lost must be zero — and answered outputs are bit-identical to
// a fault-free run regardless of failovers.
func (p *Pipeline) RunCtx(ctx *rtctx.Request, xs []*tensor.Tensor) (*Report, error) {
	period := p.part.BottleneckSec
	rep := &Report{Partition: p.part, CrashDetectFrame: -1}
	p.report = rep
	firstClean := -1
	for f, x := range xs {
		v := p.runFrame(ctx, f, float64(f)*period, x)
		rep.Frames = append(rep.Frames, v)
		end := float64(f)*period + v.LatencySec
		if end > rep.MakespanSec {
			rep.MakespanSec = end
		}
		switch {
		case v.Shed:
			rep.Shed++
		case v.Outputs != nil:
			rep.Answered++
			rep.Latencies = append(rep.Latencies, v.LatencySec)
			if firstClean < 0 && rep.CrashDetectFrame >= 0 && v.HeartbeatMisses == 0 && f > rep.CrashDetectFrame {
				firstClean = f
			}
		default:
			rep.Lost++
		}
	}
	if rep.CrashDetectFrame >= 0 && firstClean >= 0 {
		rep.RecoveryFrames = firstClean - rep.CrashDetectFrame
	}
	rep.Transcript = p.sup.Transcript()
	if p.inj != nil {
		rep.Counters = p.inj.Counters()
	}
	return rep, nil
}

// runFrame routes one frame through every stage. The sender's copy of
// the boundary activation (act) is retained until the downstream stage
// completes, so a stage death re-executes from retained state.
func (p *Pipeline) runFrame(ctx *rtctx.Request, f int, arrival float64, x *tensor.Tensor) FrameVerdict {
	v := FrameVerdict{Frame: f}
	shed := func(t float64, reason string) FrameVerdict {
		v.Shed, v.Reason = true, reason
		v.LatencySec = t - arrival
		return v
	}
	p.maybeReadmit(f)
	t := arrival
	act := x
	n := len(p.eng.Graph.Layers)
	for si := range p.stages {
		st := &p.stages[si]
		if p.deadReason != "" {
			return shed(t, p.deadReason)
		}
		if free := p.nodeFree[st.Node]; free > t {
			t = free
		}
		// Stage heartbeat: a dead owner misses heartbeats until the
		// supervisor confirms and failover re-routes the frame.
		for p.inj != nil && st.Node == p.origOwner[si] && p.inj.NodeCrashed(si, f) {
			t += heartbeatTimeoutSec
			v.HeartbeatMisses++
			if p.report.CrashDetectFrame < 0 {
				p.report.CrashDetectFrame = f
				p.crashedNode = st.Node
				p.detectT = t - heartbeatTimeoutSec
			}
			if _, q := p.sup.Observe(uint64(f), st.Node, true, "heartbeat-miss"); q {
				if !p.failover(f, si, t) {
					p.deadReason = "no-capacity"
					return shed(t, p.deadReason)
				}
				if free := p.nodeFree[st.Node]; free > t {
					t = free
				}
			}
		}
		// Gray failure: the owner stalls without dying.
		var hang float64
		if p.inj != nil && st.Node == p.origOwner[si] {
			hang = p.inj.NodeHangSec(si, f)
			t += hang
		}
		// Per-hop budget accounting: everything burned so far plus this
		// stage's layer schedule must fit the frame budget.
		out, err := p.eng.InferRangeCtx(ctx, []*tensor.Tensor{act}, st.From, st.To, nil, p.nodes[st.Node].Device, t-arrival)
		if err != nil {
			if errors.Is(err, core.ErrBudgetExhausted) {
				return shed(t, "budget")
			}
			p.deadReason = "engine-error"
			return shed(t, p.deadReason)
		}
		t += st.ComputeSec
		// Watchdog heartbeat: service time against the stage expectation.
		anomalous := st.ComputeSec > 0 && (st.ComputeSec+hang)/st.ComputeSec > serve.LatencyThreshold
		signal := ""
		if anomalous {
			signal = fmt.Sprintf("stage-lat=%.2fx", (st.ComputeSec+hang)/st.ComputeSec)
		}
		if _, q := p.sup.Observe(uint64(f), st.Node, anomalous, signal); q {
			// The hung node still answered this frame (late); future
			// frames move to a replacement.
			if !p.failover(f, si, t) {
				p.deadReason = "no-capacity"
			}
		}
		// Hand the boundary activation to the next stage, retrying
		// dropped payloads with backoff clamped to remaining budget.
		if si < len(p.stages)-1 {
			ok, tEnd := p.transfer(ctx, &v, si, f, arrival, t)
			t = tEnd
			if !ok {
				p.nodeFree[st.Node] = t
				return shed(t, "link")
			}
		}
		p.nodeFree[st.Node] = t
		if ctx.Aborts() && ctx.RemainingBudgetSec(t-arrival) == 0 {
			return shed(t, "budget")
		}
		if st.To == n {
			v.Outputs = out[0]
		} else {
			act = out[0][0]
		}
	}
	v.LatencySec = t - arrival
	return v
}

// transfer moves one boundary payload across stage si's outbound link,
// consulting the injector per attempt. Returns whether the payload
// landed and the time it (or the give-up) completed.
func (p *Pipeline) transfer(ctx *rtctx.Request, v *FrameVerdict, si, f int, arrival, t float64) (bool, float64) {
	st := p.stages[si]
	for attempt := 0; ; attempt++ {
		t += linkAt(p.links, si).TransferSec(st.OutBytes)
		if p.inj == nil {
			return true, t
		}
		delay, drop := p.inj.Transfer(si, f)
		t += delay
		if !drop {
			return true, t
		}
		v.Retries++
		if attempt >= maxTransferRetries {
			return false, t
		}
		back := backoffBaseSec * float64(int(1)<<attempt)
		if rem := ctx.RemainingBudgetSec(t - arrival); back > rem {
			back = rem
		}
		t += back
		if ctx.Aborts() && ctx.RemainingBudgetSec(t-arrival) == 0 {
			return false, t
		}
	}
}

// failover hands stage si to a replacement owner: the first standby
// node that fits, else an active neighbor's node (merging the stage
// onto it — the tractable re-partition of the remaining graph: ranges
// are unchanged, the shared node serializes both stages). The
// replacement pays the stage's weights over the inbound link before
// it can serve. Returns false when nothing fits.
func (p *Pipeline) failover(f, si int, now float64) bool {
	st := &p.stages[si]
	old := st.Node
	for _, nb := range p.candidates(si) {
		if !p.fitsExtra(nb, st.WeightBytes) {
			continue
		}
		staging := linkAt(p.links, max(si-1, 0)).TransferSec(st.WeightBytes)
		st.Node = nb
		st.ComputeSec = p.costRange(nb, st.From, st.To)
		if p.nodeFree[nb] < now {
			p.nodeFree[nb] = now
		}
		p.nodeFree[nb] += staging
		if p.isActiveOwner(nb, si) {
			p.report.Merges++
			p.sup.Move(uint64(f), nb, p.sup.State(nb), fmt.Sprintf("absorbs stage %d [%d:%d)", si, st.From, st.To))
		} else {
			p.report.Failovers++
			p.sup.Move(uint64(f), nb, serve.StateHealthy, fmt.Sprintf("takes over stage %d [%d:%d)", si, st.From, st.To))
		}
		if p.report.RecoverySec == 0 && p.report.CrashDetectFrame >= 0 {
			p.report.RecoverySec = p.nodeFree[nb] - p.detectT
		}
		if p.inj != nil && old == p.crashedNode && p.inj.Plan().RestartAfterFrames > 0 {
			p.sup.Move(uint64(f), old, serve.StateRebuilding, "restart pending")
		}
		return true
	}
	return false
}

// candidates orders replacement owners for a failing stage: standbys
// and idle pipeline nodes first, then active neighbors nearest first.
func (p *Pipeline) candidates(si int) []int {
	owned := make(map[int]bool, len(p.stages))
	for i := range p.stages {
		if i != si {
			owned[p.stages[i].Node] = true
		}
	}
	var idle, active []int
	for ni := range p.nodes {
		if ni == p.stages[si].Node || !p.available(ni) {
			continue
		}
		if owned[ni] {
			active = append(active, ni)
		} else {
			idle = append(idle, ni)
		}
	}
	// Neighbors nearest the failing stage first among active owners.
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			if absInt(active[j]-si) < absInt(active[i]-si) {
				active[i], active[j] = active[j], active[i]
			}
		}
	}
	return append(idle, active...)
}

// available reports whether a node can take work: healthy or on
// post-restart probation.
func (p *Pipeline) available(ni int) bool {
	switch p.sup.State(ni) {
	case serve.StateHealthy, serve.StateReadmitted:
		return true
	}
	return false
}

// isActiveOwner reports whether nb already serves another stage.
func (p *Pipeline) isActiveOwner(nb, except int) bool {
	for i := range p.stages {
		if i != except && p.stages[i].Node == nb {
			return true
		}
	}
	return false
}

// fitsExtra checks a node's weight-memory budget against its current
// stages plus extra bytes.
func (p *Pipeline) fitsExtra(nb int, extra int64) bool {
	limit := p.nodes[nb].MemBytes
	if limit <= 0 {
		return true
	}
	held := extra
	for i := range p.stages {
		if p.stages[i].Node == nb {
			held += p.stages[i].WeightBytes
		}
	}
	return held <= limit
}

// costRange prices layers [from,to) on node nb's device.
func (p *Pipeline) costRange(nb, from, to int) float64 {
	var sum float64
	for _, c := range p.eng.LayerCostsSec(p.nodes[nb].Device)[from:to] {
		sum += c
	}
	return sum
}

// maybeReadmit brings a restarted crashed node back as standby
// capacity on probation.
func (p *Pipeline) maybeReadmit(f int) {
	if p.inj == nil || p.crashedNode < 0 {
		return
	}
	if p.sup.State(p.crashedNode) == serve.StateRebuilding && p.inj.NodeRestarted(f) {
		p.sup.Move(uint64(f), p.crashedNode, serve.StateReadmitted, "restarted as standby")
	}
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
