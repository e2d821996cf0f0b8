package cluster

import (
	"errors"
	"math"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// proxyEngine builds the numeric resnet18 proxy on an NX plan — the
// same engine the chaos benchmarks stream.
func proxyEngine(t *testing.T) *core.Engine {
	t.Helper()
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Numeric {
		t.Fatal("proxy engine is not numeric")
	}
	return e
}

func frames(t *testing.T, key string, n int) []*tensor.Tensor {
	t.Helper()
	src := fixrand.NewKeyed(key)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 3, 32, 32)
		for j := range x.Data {
			x.Data[j] = float32(src.NormFloat64())
		}
		xs[i] = x
	}
	return xs
}

func sameBits(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for oi := range want {
		if len(got[oi].Data) != len(want[oi].Data) {
			t.Fatalf("%s: output %d size mismatch", label, oi)
		}
		for j := range want[oi].Data {
			if math.Float32bits(got[oi].Data[j]) != math.Float32bits(want[oi].Data[j]) {
				t.Fatalf("%s: output %d diverges at %d: %v vs %v",
					label, oi, j, got[oi].Data[j], want[oi].Data[j])
			}
		}
	}
}

func threeNX() []Node { return []Node{NX("nx-0"), NX("nx-1"), NX("nx-2")} }

// fastLinks is an interconnect quick enough that splitting the proxy's
// microsecond-scale compute actually pays; gigabit ethernet correctly
// collapses it to one stage (see the slow-link test).
func fastLinks(n int) []gpusim.Link {
	return UniformLinks(n, gpusim.Link{BandwidthBps: 1e11, LatencySec: 1e-7})
}

func TestPartitionCoversPlanContiguously(t *testing.T) {
	e := proxyEngine(t)
	part, err := PartitionEngine(e, threeNX(), fastLinks(2))
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Graph.Layers)
	valid := map[int]bool{}
	for _, c := range e.StageCuts() {
		valid[c] = true
	}
	from := 0
	var fill, bottleneck float64
	for i, st := range part.Stages {
		if st.From != from {
			t.Fatalf("stage %d starts at %d, want %d", i, st.From, from)
		}
		if st.To <= st.From {
			t.Fatalf("stage %d empty range [%d,%d)", i, st.From, st.To)
		}
		if st.To < n && !valid[st.To] {
			t.Fatalf("stage %d ends at %d, not a valid cut", i, st.To)
		}
		if st.Node != i {
			t.Fatalf("stage %d on node %d, want in-order assignment", i, st.Node)
		}
		if p := st.PeriodSec(); p > bottleneck {
			bottleneck = p
		}
		fill += st.PeriodSec()
		from = st.To
	}
	if from != n {
		t.Fatalf("stages end at %d, want %d", from, n)
	}
	if math.Abs(bottleneck-part.BottleneckSec) > 1e-15 {
		t.Fatalf("bottleneck %v, stages say %v", part.BottleneckSec, bottleneck)
	}
	if math.Abs(fill-part.FillSec) > 1e-12 {
		t.Fatalf("fill %v, stages sum to %v", part.FillSec, fill)
	}
	last := part.Stages[len(part.Stages)-1]
	if last.OutBytes != 0 || last.XferSec != 0 {
		t.Fatalf("final stage has outbound cost %d bytes / %v sec", last.OutBytes, last.XferSec)
	}
}

func TestPartitionRespectsMemoryConstraint(t *testing.T) {
	e := proxyEngine(t)
	n := len(e.Graph.Layers)
	total := e.StageWeightBytes(0, n)

	// The smallest cap any partition can satisfy is the heaviest minimal
	// segment between adjacent cut positions (the proxy's FC head
	// dominates). Cap nodes there: feasible, but the full model no
	// longer fits on one node, so a real split is forced.
	pos := append([]int{0}, e.StageCuts()...)
	pos = append(pos, n)
	var atom int64
	for i := 1; i < len(pos); i++ {
		if w := e.StageWeightBytes(pos[i-1], pos[i]); w > atom {
			atom = w
		}
	}
	if atom >= total {
		t.Skip("one segment holds all the weight; no cap can force a split")
	}
	nodes := threeNX()
	for i := range nodes {
		nodes[i].MemBytes = atom
	}
	part, err := PartitionEngine(e, nodes, fastLinks(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Stages) < 2 {
		t.Fatalf("memory cap %d of %d should force >=2 stages, got %d", nodes[0].MemBytes, total, len(part.Stages))
	}
	for i, st := range part.Stages {
		if st.WeightBytes > nodes[st.Node].MemBytes {
			t.Fatalf("stage %d weights %d exceed node cap %d", i, st.WeightBytes, nodes[st.Node].MemBytes)
		}
	}

	// A single node that cannot hold even the smallest stage has no cut.
	tiny := []Node{NX("nx-0")}
	tiny[0].MemBytes = 16
	if _, err := PartitionEngine(e, tiny, nil); !errors.Is(err, ErrNoViableCut) {
		t.Fatalf("infeasible memory: got %v, want ErrNoViableCut", err)
	}
}

func TestPartitionPrefersFewerStagesOverSlowLinks(t *testing.T) {
	e := proxyEngine(t)
	// A catastrophically slow interconnect makes any transfer dominate:
	// the partitioner should collapse to one stage.
	slow := gpusim.Link{BandwidthBps: 1e3, LatencySec: 1}
	part, err := PartitionEngine(e, threeNX(), UniformLinks(2, slow))
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Stages) != 1 {
		t.Fatalf("slow links should yield 1 stage, got %d: %s", len(part.Stages), part)
	}
}

// oracle runs the frames through the engine in one shot.
func oracle(t *testing.T, e *core.Engine, xs []*tensor.Tensor) [][]*tensor.Tensor {
	t.Helper()
	want, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestPipelineFaultFreeMatchesInferBatch(t *testing.T) {
	e := proxyEngine(t)
	p, err := New(PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Partition().Stages) < 2 {
		t.Fatalf("want a real pipeline, got %s", p.Partition())
	}
	xs := frames(t, "cluster-clean", 8)
	rep, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Shed != 0 || rep.Answered != len(xs) {
		t.Fatalf("answered %d shed %d lost %d of %d", rep.Answered, rep.Shed, rep.Lost, len(xs))
	}
	want := oracle(t, e, xs)
	for f, v := range rep.Frames {
		sameBits(t, "frame", v.Outputs, want[f])
		if v.LatencySec <= 0 {
			t.Fatalf("frame %d has non-positive latency %v", f, v.LatencySec)
		}
	}
	if len(rep.Transcript) != 0 {
		t.Fatalf("fault-free run has transcript: %v", rep.Transcript)
	}
}

func TestPipelineCrashFailsOverToStandby(t *testing.T) {
	e := proxyEngine(t)
	plan := faults.NewClusterPlan("crash-standby")
	plan.CrashStage = 1
	plan.CrashAtFrame = 3
	plan.RestartAfterFrames = 6
	p, err := New(PipelineConfig{
		Engine:   e,
		Nodes:    threeNX(),
		Links:    fastLinks(2),
		Standby:  []Node{AGX("agx-sb")},
		Injector: plan.New("run"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Partition().Stages) < 2 {
		t.Skip("partition collapsed to one stage; crash stage unused")
	}
	xs := frames(t, "cluster-crash", 12)
	rep, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("%d frames lost silently", rep.Lost)
	}
	if rep.Shed != 0 || rep.Answered != len(xs) {
		t.Fatalf("standby failover should answer every frame: answered %d shed %d", rep.Answered, rep.Shed)
	}
	if rep.Failovers+rep.Merges == 0 {
		t.Fatal("no failover recorded")
	}
	if rep.CrashDetectFrame != 3 {
		t.Fatalf("crash detected at frame %d, want 3", rep.CrashDetectFrame)
	}
	if rep.RecoveryFrames < 0 || rep.RecoveryFrames > 4 {
		t.Fatalf("recovery took %d frames, want <=4", rep.RecoveryFrames)
	}
	if rep.RecoverySec <= 0 {
		t.Fatalf("recovery time %v, want > 0", rep.RecoverySec)
	}
	if rep.Counters.Get(faults.KindNodeCrash) != 1 {
		t.Fatalf("crash counted %d times, want 1", rep.Counters.Get(faults.KindNodeCrash))
	}
	// The robustness headline: every answered output is bit-identical
	// to the fault-free oracle, failover or not.
	want := oracle(t, e, xs)
	for f, v := range rep.Frames {
		sameBits(t, "frame", v.Outputs, want[f])
	}
	if len(rep.Transcript) == 0 {
		t.Fatal("failover left no transcript")
	}
}

func TestPipelineCrashMergesWithoutStandby(t *testing.T) {
	e := proxyEngine(t)
	plan := faults.NewClusterPlan("crash-merge")
	plan.CrashStage = 1
	plan.CrashAtFrame = 2
	p, err := New(PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2), Injector: plan.New("run")})
	if err != nil {
		t.Fatal(err)
	}
	stages := len(p.Partition().Stages)
	if stages < 2 {
		t.Skip("partition collapsed to one stage; crash stage unused")
	}
	xs := frames(t, "cluster-merge", 10)
	rep, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("%d frames lost silently", rep.Lost)
	}
	if stages == len(threeNX()) && rep.Merges == 0 {
		t.Fatalf("all nodes active: expected a neighbor merge, got failovers=%d merges=%d", rep.Failovers, rep.Merges)
	}
	if rep.Answered != len(xs) {
		t.Fatalf("merge should keep answering: answered %d shed %d", rep.Answered, rep.Shed)
	}
	want := oracle(t, e, xs)
	for f, v := range rep.Frames {
		sameBits(t, "frame", v.Outputs, want[f])
	}
}

func TestPipelineBudgetShedIsExplicit(t *testing.T) {
	e := proxyEngine(t)
	probe, err := PartitionEngine(e, threeNX(), fastLinks(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2)})
	if err != nil {
		t.Fatal(err)
	}
	xs := frames(t, "cluster-budget", 5)
	rep, err := p.RunCtx(rtctx.WithBudget(probe.FillSec*1e-3), xs) // hopeless: no frame can finish
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("%d frames lost silently", rep.Lost)
	}
	if rep.Shed != len(xs) {
		t.Fatalf("hopeless budget shed %d of %d", rep.Shed, len(xs))
	}
	for _, v := range rep.Frames {
		if !v.Shed || v.Reason != "budget" {
			t.Fatalf("frame %d: shed=%v reason=%q, want explicit budget shed", v.Frame, v.Shed, v.Reason)
		}
	}

	// A generous budget answers everything.
	p2, err := New(PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2)})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := p2.RunCtx(rtctx.WithBudget(probe.FillSec*50), xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Answered != len(xs) || rep2.Lost != 0 {
		t.Fatalf("generous budget: answered %d lost %d of %d", rep2.Answered, rep2.Lost, len(xs))
	}
}

func TestPipelinePartitionedLinkShedsExplicitly(t *testing.T) {
	e := proxyEngine(t)
	plan := faults.NewClusterPlan("link-partition")
	plan.PartitionLink = 0
	plan.PartitionFrom = 2
	plan.PartitionFrames = 3
	p, err := New(PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2), Injector: plan.New("run")})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Partition().Stages) < 2 {
		t.Skip("partition collapsed to one stage; no link to partition")
	}
	xs := frames(t, "cluster-partitioned", 8)
	rep, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("%d frames lost silently", rep.Lost)
	}
	want := oracle(t, e, xs)
	for f, v := range rep.Frames {
		inWindow := f >= 2 && f < 5
		if inWindow {
			if !v.Shed || v.Reason != "link" {
				t.Fatalf("frame %d in partition window: shed=%v reason=%q", f, v.Shed, v.Reason)
			}
			if v.Retries == 0 {
				t.Fatalf("frame %d shed without retrying", f)
			}
			continue
		}
		if v.Shed {
			t.Fatalf("frame %d outside window shed (%s)", f, v.Reason)
		}
		sameBits(t, "frame", v.Outputs, want[f])
	}
	if rep.Counters.Get(faults.KindLinkPartition) == 0 {
		t.Fatal("partition window never counted")
	}
}

func TestPipelineHangTripsWatchdog(t *testing.T) {
	e := proxyEngine(t)
	plan := faults.NewClusterPlan("hang")
	plan.HangStage = 0
	plan.HangAtFrame = 2
	plan.HangFrames = 6
	plan.HangSec = 0.5
	p, err := New(PipelineConfig{
		Engine:   e,
		Nodes:    threeNX(),
		Links:    fastLinks(2),
		Standby:  []Node{AGX("agx-sb")},
		Injector: plan.New("run"),
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := frames(t, "cluster-hang", 10)
	rep, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Shed != 0 {
		t.Fatalf("gray failure must not drop frames: shed %d lost %d", rep.Shed, rep.Lost)
	}
	if rep.Failovers+rep.Merges == 0 {
		t.Fatal("watchdog never failed the hung stage over")
	}
	// The hung node answered its frames late but correctly, and the
	// replacement answered the rest — all bit-identical.
	want := oracle(t, e, xs)
	for f, v := range rep.Frames {
		sameBits(t, "frame", v.Outputs, want[f])
	}
	if rep.Counters.Get(faults.KindNodeHang) == 0 {
		t.Fatal("hang never counted")
	}
}

func TestPipelineRunIsDeterministic(t *testing.T) {
	e := proxyEngine(t)
	run := func() *Report {
		plan := faults.ClusterChaos("determinism", 1, 3)
		p, err := New(PipelineConfig{
			Engine:   e,
			Nodes:    threeNX(),
			Links:    fastLinks(2),
			Standby:  []Node{AGX("agx-sb")},
			Injector: plan.New("run"),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(frames(t, "cluster-det", 20))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for f := range a.Frames {
		va, vb := a.Frames[f], b.Frames[f]
		if va.Shed != vb.Shed || va.Reason != vb.Reason || va.Retries != vb.Retries ||
			va.HeartbeatMisses != vb.HeartbeatMisses ||
			math.Float64bits(va.LatencySec) != math.Float64bits(vb.LatencySec) {
			t.Fatalf("frame %d verdicts differ: %+v vs %+v", f, va, vb)
		}
	}
	if len(a.Transcript) != len(b.Transcript) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(a.Transcript), len(b.Transcript))
	}
	for i := range a.Transcript {
		if a.Transcript[i] != b.Transcript[i] {
			t.Fatalf("transcript line %d differs:\n%s\n%s", i, a.Transcript[i], b.Transcript[i])
		}
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
}
