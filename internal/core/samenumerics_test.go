package core

import (
	"fmt"
	"math"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// SameNumerics is what lets a caller answer for one engine with another's
// run (experiments.Lab), so the error that matters is a false "same". The
// tests hold it from both sides over the oracle's model set: engines it
// calls equal are run and compared bit for bit, intermediates included;
// and every single thing execution reads, changed alone, must make it say
// "different".

func flipBit(t *tensor.Tensor, i int) {
	t.Data[i] = math.Float32frombits(math.Float32bits(t.Data[i]) ^ 1)
}

// TestSameNumericsIsAnEquivalenceOfEqualPrograms builds every oracle
// model × precision at build ids 1–6 on both platforms, checks that
// SameNumerics is reflexive, symmetric and transitive over each model's
// engines and false across models, and runs every engine against the
// first member of its class on 8 inputs under a recording injector:
// outputs and the digest of every activation handed over must agree.
func TestSameNumericsIsAnEquivalenceOfEqualPrograms(t *testing.T) {
	builds := []int{1, 2, 3, 4, 5, 6}
	if testing.Short() || raceEnabled {
		builds = []int{1, 2}
	}
	var firsts []*Engine // one engine per model, for the cross-model check
	shared, classes := 0, 0
	for _, m := range oracleModels(t) {
		var engines []*Engine
		var labels []string
		for _, p := range oraclePrecisions {
			for _, spec := range gpusim.Platforms() {
				for _, id := range builds {
					cfg := DefaultConfig(spec, id)
					p.cfg(&cfg, m.pool[:3])
					cfg.DisablePasses = m.disable
					e, err := Build(m.g, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s/%d: %v", m.name, p.name, spec.Short(), id, err)
					}
					engines = append(engines, e)
					labels = append(labels, fmt.Sprintf("%s/%s/%s/build%d", m.name, p.name, spec.Short(), id))
				}
			}
		}
		n := len(engines)
		same := make([][]bool, n)
		for i, a := range engines {
			same[i] = make([]bool, n)
			for j, b := range engines {
				same[i][j] = a.SameNumerics(b)
			}
		}
		rep := make([]int, n) // first member of each engine's class
		for i := range engines {
			if !same[i][i] {
				t.Fatalf("%s: not the same program as itself", labels[i])
			}
			rep[i] = i
			for j := range engines {
				if same[i][j] != same[j][i] {
					t.Fatalf("%s vs %s: SameNumerics is %v one way and %v the other", labels[i], labels[j], same[i][j], same[j][i])
				}
				if same[i][j] && j < rep[i] {
					rep[i] = j
				}
				for k := range engines {
					if same[i][j] && same[j][k] && !same[i][k] {
						t.Fatalf("%s = %s = %s, but the first and the last differ", labels[i], labels[j], labels[k])
					}
				}
			}
		}
		for _, f := range firsts {
			for i, e := range engines {
				if f.SameNumerics(e) || e.SameNumerics(f) {
					t.Fatalf("%s is called the same program as an engine of another model (%s)", labels[i], f.Key())
				}
			}
		}
		firsts = append(firsts, engines[0])

		xs := m.pool[:8]
		for i, e := range engines {
			if rep[i] == i {
				classes++
				continue
			}
			shared++
			wr, gr := newRecorder(""), newRecorder("")
			want, wantErr := engines[rep[i]].InferBatchCtx(nil, xs, wr, nil, 0)
			got, gotErr := e.InferBatchCtx(nil, xs, gr, nil, 0)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("%s: %v / %v", labels[i], wantErr, gotErr)
			}
			sameRun(t, labels[i]+" vs "+labels[rep[i]], got, want, nil, nil, gr, wr)
		}
	}
	t.Logf("%d distinct programs, %d engines answered by another's class", classes, shared)
	if shared == 0 {
		t.Fatal("no two engines were the same program: the equal-outputs half of the test ran on nothing")
	}
}

// TestSameNumericsSeesEverySingleChange builds each engine twice, checks
// the twins are one program, then changes one thing execution reads in
// one of them — and, for contrast, the variant fields no reduction reads.
// Each change is undone, and the twins must be one program again.
func TestSameNumericsSeesEverySingleChange(t *testing.T) {
	type mutation struct {
		name    string
		differs bool
		// apply changes s if it can and returns the undo; nil if s is not a
		// step this mutation applies to.
		apply func(s *step) func()
	}
	kernel := func(s *step) bool { return s.l.Op == graph.OpConv || s.l.Op == graph.OpFC }
	variant := func(name string, differs bool, edit func(v *kernels.Variant)) mutation {
		return mutation{name, differs, func(s *step) func() {
			if !kernel(s) {
				return nil
			}
			old := s.v
			edit(&s.v)
			return func() { s.v = old }
		}}
	}
	mutations := []mutation{
		{"a weight bit", true, func(s *step) func() {
			if !kernel(s) || s.w == nil {
				return nil
			}
			i := len(s.w.Data) / 2
			flipBit(s.w, i)
			return func() { flipBit(s.w, i) }
		}},
		{"a bias bit", true, func(s *step) func() {
			if !kernel(s) || s.b == nil {
				return nil
			}
			flipBit(s.b, 0)
			return func() { flipBit(s.b, 0) }
		}},
		{"a batch-norm or scale parameter bit", true, func(s *step) func() {
			if kernel(s) || s.l.Weights["gamma"] == nil {
				return nil
			}
			flipBit(s.l.Weights["gamma"], 0)
			return func() { flipBit(s.l.Weights["gamma"], 0) }
		}},
		{"qscale", true, func(s *step) func() {
			if !s.quant {
				return nil
			}
			old := s.qscale
			s.qscale = math.Nextafter32(old, 2*old)
			return func() { s.qscale = old }
		}},
		{"quantization off", true, func(s *step) func() {
			if !s.quant {
				return nil
			}
			s.quant = false
			return func() { s.quant = true }
		}},
		{"fusion Act", true, func(s *step) func() {
			if !kernel(s) {
				return nil
			}
			old := s.f.Act
			s.f.Act = ActSigmoid
			if old == ActSigmoid {
				s.f.Act = ActLeaky
			}
			return func() { s.f.Act = old }
		}},
		{"LeakyAlpha", true, func(s *step) func() {
			if !kernel(s) || s.f.Act != ActLeaky {
				return nil
			}
			old := s.f.LeakyAlpha
			s.f.LeakyAlpha = math.Nextafter32(old, 1)
			return func() { s.f.LeakyAlpha = old }
		}},
		variant("TileK", true, func(v *kernels.Variant) { v.TileK++ }),
		variant("split-K", true, func(v *kernels.Variant) {
			if v.SplitK > 1 {
				v.SplitK = 1
			} else {
				v.SplitK = 2
			}
		}),
		variant("precision", true, func(v *kernels.Variant) {
			if v.Precision == tensor.FP32 {
				v.Precision = tensor.FP16
			} else {
				v.Precision = tensor.FP32
			}
		}),
		variant("fused ReLU", true, func(v *kernels.Variant) { v.FusedAct = !v.FusedAct }),
		{"the reference mark", true, func(s *step) func() {
			if !kernel(s) {
				return nil
			}
			s.ref = !s.ref
			return func() { s.ref = !s.ref }
		}},
		{"a pool parameter", true, func(s *step) func() {
			if s.l.Op != graph.OpMaxPool && s.l.Op != graph.OpAvgPool {
				return nil
			}
			s.l.Pool.Stride++
			return func() { s.l.Pool.Stride-- }
		}},
		{"a conv parameter", true, func(s *step) func() {
			if s.l.Op != graph.OpConv {
				return nil
			}
			s.l.Conv.Pad++
			return func() { s.l.Conv.Pad-- }
		}},
		{"a producer position", true, func(s *step) func() {
			if len(s.ins) == 0 || s.ins[0] == 0 {
				return nil
			}
			s.ins[0]--
			return func() { s.ins[0]++ }
		}},
		variant("Family, TileM, TileN and layout", false, func(v *kernels.Variant) {
			v.Family, v.TileM, v.TileN, v.NHWC = (v.Family+1)%kernels.FamGEMM, v.TileM*2, v.TileN+32, !v.NHWC
		}),
	}
	applied := make([]int, len(mutations))
	for _, m := range oracleModels(t) {
		for _, p := range oraclePrecisions {
			cfg := nxCfg(1)
			p.cfg(&cfg, m.pool[:3])
			cfg.DisablePasses = m.disable
			a, errA := Build(m.g, cfg)
			b, errB := Build(m.g, cfg)
			if errA != nil || errB != nil {
				t.Fatalf("%s/%s: %v / %v", m.name, p.name, errA, errB)
			}
			label := m.name + "/" + p.name
			if !a.SameNumerics(b) {
				t.Fatalf("%s: two builds of one configuration are different programs", label)
			}
			for mi, mu := range mutations {
				for si := range b.plan.steps {
					s := &b.plan.steps[si]
					undo := mu.apply(s)
					if undo == nil {
						continue
					}
					applied[mi]++
					if got := a.SameNumerics(b) && b.SameNumerics(a); got == mu.differs {
						t.Errorf("%s step %d (%s): after changing %s, SameNumerics = %v", label, si, s.l.Name, mu.name, got)
					}
					undo()
					if !a.SameNumerics(b) {
						t.Fatalf("%s step %d (%s): undoing %s did not restore the program", label, si, s.l.Name, mu.name)
					}
				}
			}

			// The graph outputs and the declared input shape are read too.
			b.plan.outs[0]--
			if a.SameNumerics(b) {
				t.Errorf("%s: a different graph output is called the same program", label)
			}
			b.plan.outs[0]++
			b.Graph.InputShape[3]++
			if a.SameNumerics(b) {
				t.Errorf("%s: a different declared input shape is called the same program", label)
			}
			b.Graph.InputShape[3]--
			if !a.SameNumerics(b) {
				t.Fatalf("%s: twins differ after every change was undone", label)
			}
		}
	}
	for mi, mu := range mutations {
		if applied[mi] == 0 {
			t.Errorf("no step of any model let the test change %s", mu.name)
		}
	}
}

// TestReferenceIsItsOwnProgram: two references of one graph are one
// program, and a reference is never a built engine — not even an FP32,
// unpruned build with the rewriting passes off, whose conv and fc read
// the same weights through engine kernels.
func TestReferenceIsItsOwnProgram(t *testing.T) {
	g := tinyNet(t)
	a, errA := Reference(g)
	b, errB := Reference(g)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !a.SameNumerics(b) {
		t.Fatal("two references of one graph are different programs")
	}
	cfg := nxCfg(1)
	cfg.Precision, cfg.PruneFrac = tensor.FP32, 0
	cfg.DisablePasses = []string{PassDeadLayerRemoval, PassVerticalFusion, PassHorizontalMerge}
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SameNumerics(e) || e.SameNumerics(a) {
		t.Fatal("a reference is called the same program as a built engine")
	}
}

// TestSameNumericsTimingOnly: an engine with no schedule computes
// nothing, so it is the same program as nothing — itself included.
func TestSameNumericsTimingOnly(t *testing.T) {
	g := graph.NewBuilder("timing-only", [4]int{1, 3, 8, 8})
	g.Conv("c", 4, 3, 1, 1).ReLU("r")
	timing, err := Build(g.Done(), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if timing.Numeric {
		t.Fatal("a graph without weights built a numeric engine")
	}
	if timing.SameNumerics(timing) || timing.SameNumerics(numeric) || numeric.SameNumerics(timing) {
		t.Fatal("a timing-only engine is called the same program as something")
	}
}
