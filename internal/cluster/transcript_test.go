package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"edgeinfer/internal/faults"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/tensor"
)

// renderReport is the identity the pins below hold: the partition cuts,
// the failover accounting (RecoverySec to the bit) and every supervisor
// transcript line, one per line.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cuts %v failovers %d merges %d detect %d recovery %d frames %#x s\n",
		rep.Partition.Cuts(), rep.Failovers, rep.Merges, rep.CrashDetectFrame,
		rep.RecoveryFrames, math.Float64bits(rep.RecoverySec))
	for _, line := range rep.Transcript {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTranscriptPinned holds the failover scenarios of this package's
// tests, and the cluster chaos soak, to their exact transcripts and
// recovery accounting. The soak's row also holds the soak's gates.
func TestTranscriptPinned(t *testing.T) {
	e := proxyEngine(t)
	smokeFrames := func() []*tensor.Tensor { // 60 frames from the soak's seed
		src := fixrand.NewKeyed("clusterbench/clusterbench")
		xs := make([]*tensor.Tensor, 60)
		for i := range xs {
			xs[i] = tensor.New(1, 3, 32, 32)
			for j := range xs[i].Data {
				xs[i].Data[j] = float32(src.NormFloat64())
			}
		}
		return xs
	}
	cases := []struct {
		name string
		cfg  func() PipelineConfig
		xs   func() []*tensor.Tensor
		want string
		soak bool // also check soakGates
	}{
		{"crash-standby-restart", func() PipelineConfig {
			plan := faults.NewClusterPlan("crash-standby")
			plan.CrashStage, plan.CrashAtFrame, plan.RestartAfterFrames = 1, 3, 6
			return PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2),
				Standby: []Node{AGX("agx-sb")}, Injector: plan.New("run")}
		}, func() []*tensor.Tensor { return frames(t, "cluster-crash", 12) }, `cuts [3 6] failovers 1 merges 0 detect 3 recovery 1 frames 0x3f847aeec63545c0 s
frame 3: node 1 (nx-1) healthy->suspect heartbeat-miss
frame 3: node 1 (nx-1) suspect->quarantined heartbeat-miss
frame 3: node 3 (agx-sb) healthy->healthy takes over stage 1 [3:6)
frame 3: node 1 (nx-1) quarantined->rebuilding restart pending
frame 9: node 1 (nx-1) rebuilding->readmitted restarted as standby
`, false},
		{"crash-merge", func() PipelineConfig {
			plan := faults.NewClusterPlan("crash-merge")
			plan.CrashStage, plan.CrashAtFrame = 1, 2
			return PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2), Injector: plan.New("run")}
		}, func() []*tensor.Tensor { return frames(t, "cluster-merge", 10) }, `cuts [3 6] failovers 0 merges 1 detect 2 recovery 1 frames 0x3f847aeec63545c0 s
frame 2: node 1 (nx-1) healthy->suspect heartbeat-miss
frame 2: node 1 (nx-1) suspect->quarantined heartbeat-miss
frame 2: node 0 (nx-0) healthy->healthy absorbs stage 1 [3:6)
`, false},
		{"hang", func() PipelineConfig {
			plan := faults.NewClusterPlan("hang")
			plan.HangStage, plan.HangAtFrame, plan.HangFrames, plan.HangSec = 0, 2, 6, 0.5
			return PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2),
				Standby: []Node{AGX("agx-sb")}, Injector: plan.New("run")}
		}, func() []*tensor.Tensor { return frames(t, "cluster-hang", 10) }, `cuts [3 6] failovers 1 merges 0 detect -1 recovery 0 frames 0x0 s
frame 2: node 0 (nx-0) healthy->suspect stage-lat=25948.99x
frame 3: node 0 (nx-0) suspect->quarantined stage-lat=25948.99x
frame 3: node 3 (agx-sb) healthy->healthy takes over stage 0 [0:3)
`, false},
		{"chaos", func() PipelineConfig {
			plan := faults.ClusterChaos("determinism", 1, 3)
			return PipelineConfig{Engine: e, Nodes: threeNX(), Links: fastLinks(2),
				Standby: []Node{AGX("agx-sb")}, Injector: plan.New("run")}
		}, func() []*tensor.Tensor { return frames(t, "cluster-det", 20) }, `cuts [3 6] failovers 1 merges 0 detect 3 recovery 1 frames 0x3f847aeec63545c0 s
frame 3: node 1 (nx-1) healthy->suspect heartbeat-miss
frame 3: node 1 (nx-1) suspect->quarantined heartbeat-miss
frame 3: node 3 (agx-sb) healthy->healthy takes over stage 1 [3:6)
frame 3: node 1 (nx-1) quarantined->rebuilding restart pending
`, false},
		// The chaos soak: a heterogeneous pipeline with one standby, its
		// middle stage killed at frame 15 under link noise.
		{"clusterbench-smoke", func() PipelineConfig {
			plan := faults.ClusterChaos("clusterbench", 1, 15)
			return PipelineConfig{Engine: e,
				Nodes:    []Node{NX("nx-0"), NX("nx-1"), AGX("agx-2")},
				Standby:  []Node{NX("nx-standby")},
				Links:    UniformLinks(2, gpusim.Link{BandwidthBps: 1e11, LatencySec: 1e-7}),
				Injector: plan.New("soak")}
		}, smokeFrames, `cuts [3 6] failovers 1 merges 0 detect 15 recovery 1 frames 0x3f847aeec63545c0 s
frame 15: node 1 (nx-1) healthy->suspect heartbeat-miss
frame 15: node 1 (nx-1) suspect->quarantined heartbeat-miss
frame 15: node 3 (nx-standby) healthy->healthy takes over stage 1 [3:6)
frame 15: node 1 (nx-1) quarantined->rebuilding restart pending
frame 55: node 1 (nx-1) rebuilding->readmitted restarted as standby
`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Run(c.xs())
			if err != nil {
				t.Fatal(err)
			}
			if got := renderReport(rep); got != c.want {
				t.Errorf("report moved:\n--- got\n%s--- want\n%s", got, c.want)
			}
			if c.soak {
				soakGates(t, c.cfg(), c.xs(), rep)
			}
		})
	}
}

// soakGates holds a chaos soak to its robustness contract against a
// fault-free baseline on the same topology: the baseline answers every
// frame; the soak loses none silently (answered + shed == frames),
// detects the crash and fails over or merges, recovers within 8
// frames, and answers every answered frame bit-identically to the
// baseline. It also pins the soak's counts: 60 answered, none shed.
func soakGates(t *testing.T, cfg PipelineConfig, xs []*tensor.Tensor, rep *Report) {
	t.Helper()
	cfg.Injector = nil
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	n := len(xs)
	if base.Answered != n || base.Shed != 0 || base.Lost != 0 {
		t.Errorf("fault-free baseline: answered %d shed %d lost %d of %d frames", base.Answered, base.Shed, base.Lost, n)
	}
	if rep.Lost != 0 || rep.Answered+rep.Shed != n {
		t.Errorf("soak: answered %d + shed %d of %d frames, %d lost", rep.Answered, rep.Shed, n, rep.Lost)
	}
	if rep.Answered != 60 || rep.Shed != 0 {
		t.Errorf("soak: answered %d shed %d, want 60 and 0", rep.Answered, rep.Shed)
	}
	if rep.CrashDetectFrame < 0 || rep.Failovers+rep.Merges < 1 {
		t.Errorf("soak: crash detected at frame %d, %d failovers, %d merges", rep.CrashDetectFrame, rep.Failovers, rep.Merges)
	}
	if rep.RecoveryFrames > 8 {
		t.Errorf("soak: recovery took %d frames, bound 8", rep.RecoveryFrames)
	}
	for f, v := range rep.Frames {
		if !v.Shed && v.Outputs != nil {
			sameBits(t, fmt.Sprintf("soak frame %d", f), v.Outputs, base.Frames[f].Outputs)
		}
	}
}

// TestTranscriptIsACopy: a caller writing into the slice Transcript
// returned must not rewrite the history later readers see.
func TestTranscriptIsACopy(t *testing.T) {
	plan := faults.NewClusterPlan("crash-merge")
	plan.CrashStage, plan.CrashAtFrame = 1, 2
	p, err := New(PipelineConfig{Engine: proxyEngine(t), Nodes: threeNX(), Links: fastLinks(2), Injector: plan.New("run")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(frames(t, "cluster-merge", 10)); err != nil {
		t.Fatal(err)
	}
	got := p.Transcript()
	if len(got) == 0 {
		t.Fatal("crash left no transcript")
	}
	want := got[0]
	got[0] = "overwritten by the caller"
	if again := p.Transcript(); again[0] != want {
		t.Fatalf("Transcript()[0] = %q after a caller's write, want %q", again[0], want)
	}
}
