package core

import (
	"math"
	"reflect"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Direct unit tests for the pass bodies, which before the pipeline
// refactor were only exercised through full Build calls.

// mergeNet has one source conv feeding three mergeable 1x1 siblings and
// one 3x3 conv that must stay out of the group.
func mergeNet(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("mergenet", [4]int{1, 4, 8, 8})
	b.Conv("stem", 8, 3, 1, 1)
	pA := b.From("stem").Conv("projA", 4, 1, 1, 0).Cursor()
	pB := b.From("stem").Conv("projB", 4, 1, 1, 0).Cursor()
	pC := b.From("stem").Conv("projC", 4, 1, 1, 0).Cursor()
	pD := b.From("stem").Conv("spatial", 4, 3, 1, 1).Cursor()
	b.ConcatJoin("cat", pA, pB, pC, pD)
	b.G.Outputs = []string{"cat"}
	return b.Done()
}

func TestHorizontalGroupsDirect(t *testing.T) {
	g := mergeNet(t)
	leader, groups := horizontalGroups(g)

	want := []string{"projA", "projB", "projC"}
	if got := groups["projA"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("group of projA = %v, want %v", got, want)
	}
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1: %v", len(groups), groups)
	}
	for _, name := range want {
		if leader[name] != "projA" {
			t.Errorf("leader[%s] = %q, want projA", name, leader[name])
		}
	}
	if _, ok := leader["spatial"]; ok {
		t.Errorf("3x3 conv joined a 1x1 merge group")
	}
	if _, ok := leader["stem"]; ok {
		t.Errorf("source layer joined its consumers' merge group")
	}
}

func TestHorizontalGroupsNeedTwoSiblings(t *testing.T) {
	b := graph.NewBuilder("solo", [4]int{1, 4, 8, 8})
	b.Conv("stem", 8, 3, 1, 1).Conv("proj", 4, 1, 1, 0)
	b.G.Outputs = []string{"proj"}
	g := b.Done()
	leader, groups := horizontalGroups(g)
	if len(leader) != 0 || len(groups) != 0 {
		t.Fatalf("single 1x1 consumer formed a group: leader=%v groups=%v", leader, groups)
	}
}

func TestFoldBNDirect(t *testing.T) {
	// A 2-out-channel conv with known weights, folded with a batch-norm
	// whose per-channel affine transform is computed by hand.
	conv := &graph.Layer{
		Name: "conv", Op: graph.OpConv,
		Conv:    tensor.ConvParams{OutC: 2, Kernel: 1, Stride: 1, Groups: 1},
		Weights: map[string]*tensor.Tensor{},
	}
	w := tensor.New(2, 3, 1, 1)
	for i := range w.Data {
		w.Data[i] = float32(i + 1) // ch0: 1,2,3  ch1: 4,5,6
	}
	conv.Weights["w"] = w

	bn := &graph.Layer{Name: "bn", Op: graph.OpBatchNorm, Weights: map[string]*tensor.Tensor{}}
	gamma, beta := tensor.NewVec(2), tensor.NewVec(2)
	mean, variance := tensor.NewVec(2), tensor.NewVec(2)
	gamma.Data = []float32{2, 0.5}
	beta.Data = []float32{1, -1}
	mean.Data = []float32{0.5, -0.25}
	variance.Data = []float32{4, 1}
	bn.Weights["gamma"], bn.Weights["beta"] = gamma, beta
	bn.Weights["mean"], bn.Weights["var"] = mean, variance

	foldBN(conv, bn)

	for c := 0; c < 2; c++ {
		inv := 1 / math.Sqrt(float64(variance.Data[c])+1e-5)
		scale := float64(gamma.Data[c]) * inv
		shift := float64(beta.Data[c]) - float64(mean.Data[c])*scale
		for i := 0; i < 3; i++ {
			want := float32(float64(c*3+i+1) * scale)
			if got := conv.Weights["w"].Data[c*3+i]; !close32(got, want) {
				t.Errorf("w[%d][%d] = %v, want %v", c, i, got, want)
			}
		}
		if got := conv.Weights["b"].Data[c]; !close32(got, float32(shift)) {
			t.Errorf("b[%d] = %v, want %v", c, got, shift)
		}
	}
}

func TestFoldBNScaleLayer(t *testing.T) {
	// Scale layers fold gamma/beta only: no mean/var normalization.
	conv := &graph.Layer{
		Name: "conv", Op: graph.OpConv,
		Conv:    tensor.ConvParams{OutC: 1, Kernel: 1, Stride: 1, Groups: 1},
		Weights: map[string]*tensor.Tensor{},
	}
	w := tensor.New(1, 2, 1, 1)
	w.Data = []float32{1, -2}
	conv.Weights["w"] = w
	b := tensor.NewVec(1)
	b.Data = []float32{0.5}
	conv.Weights["b"] = b

	sc := &graph.Layer{Name: "scale", Op: graph.OpScale, Weights: map[string]*tensor.Tensor{}}
	gamma, beta := tensor.NewVec(1), tensor.NewVec(1)
	gamma.Data = []float32{3}
	beta.Data = []float32{-0.25}
	sc.Weights["gamma"], sc.Weights["beta"] = gamma, beta

	foldBN(conv, sc)
	if got := conv.Weights["w"].Data; !close32(got[0], 3) || !close32(got[1], -6) {
		t.Errorf("scaled weights = %v, want [3 -6]", got)
	}
	// b' = b*gamma + beta
	if got := conv.Weights["b"].Data[0]; !close32(got, 0.5*3-0.25) {
		t.Errorf("scaled bias = %v, want %v", got, 0.5*3-0.25)
	}
}

func TestFoldBNWithoutWeightsIsMetadataOnly(t *testing.T) {
	conv := &graph.Layer{
		Name: "conv", Op: graph.OpConv,
		Conv:    tensor.ConvParams{OutC: 2, Kernel: 3, Stride: 1, Groups: 1},
		Weights: map[string]*tensor.Tensor{},
	}
	bn := &graph.Layer{Name: "bn", Op: graph.OpBatchNorm, Weights: map[string]*tensor.Tensor{}}
	foldBN(conv, bn) // must not panic or materialize anything
	if len(conv.Weights) != 0 {
		t.Fatalf("timing-only fold materialized weights: %v", conv.Weights)
	}
}

func TestDeadLayerRemovalDirect(t *testing.T) {
	// A live trunk with a dropout (spliced no-op) and a two-layer dead
	// auxiliary head not reachable from the output.
	b := graph.NewBuilder("deadnet", [4]int{1, 4, 8, 8})
	b.Conv("conv1", 8, 3, 1, 1).ReLU("relu1").Dropout("drop").FC("fc", 6)
	b.From("relu1").GlobalAvgPool("aux_pool").FC("aux_fc", 3)
	b.G.Outputs = []string{"fc"}
	g := b.Done().Clone()
	g.Outputs = []string{"fc"}

	removed := deadLayerRemoval(g)
	if removed != 3 { // aux_pool, aux_fc, drop
		t.Fatalf("removed %d layers, want 3", removed)
	}
	if err := g.Finalize(); err != nil {
		t.Fatalf("finalize after removal: %v", err)
	}
	for _, dead := range []string{"aux_pool", "aux_fc", "drop"} {
		if g.Layer(dead) != nil {
			t.Errorf("dead layer %q survived", dead)
		}
	}
	// The dropout splice must rewire fc onto relu1.
	if in := g.Layer("fc").Inputs; len(in) != 1 || in[0] != "relu1" {
		t.Errorf("fc inputs after splice = %v, want [relu1]", in)
	}
}

func TestDeadLayerRemovalKeepsLiveGraph(t *testing.T) {
	b := graph.NewBuilder("livenet", [4]int{1, 4, 8, 8})
	b.Conv("conv1", 8, 3, 1, 1).ReLU("relu1").FC("fc", 6)
	b.G.Outputs = []string{"fc"}
	g := b.Done().Clone()
	g.Outputs = []string{"fc"}
	if removed := deadLayerRemoval(g); removed != 0 {
		t.Fatalf("removed %d layers from an all-live graph", removed)
	}
}

func close32(a, b float32) bool {
	return math.Abs(float64(a-b)) <= 1e-5*(1+math.Abs(float64(b)))
}

// The consumer index counts each consuming layer once, however many of
// its inputs name the producer.
func TestConsumerIndex(t *testing.T) {
	b := graph.NewBuilder("uses", [4]int{1, 4, 8, 8})
	b.Conv("stem", 8, 3, 1, 1)
	b.From("stem").Conv("b1", 8, 3, 1, 1)
	b.From("stem").Conv("b2", 8, 1, 1, 0)
	b.From("b1").AddJoin("res", "b2")
	b.From("stem").Conv("c1", 8, 1, 1, 0)
	b.From("c1").AddJoin("twice", "c1")
	b.G.Outputs = []string{"res", "twice"}
	g := b.Done()
	uses := consumerIndex(g)
	for name, want := range map[string]struct {
		n    int
		last string
	}{"data": {1, "stem"}, "stem": {3, "c1"}, "b1": {1, "res"}, "b2": {1, "res"}, "c1": {1, "twice"}} {
		if u := uses[name]; u.n != want.n || u.last == nil || u.last.Name != want.last {
			t.Errorf("%s: %d uses, last %v; want %d, last %s", name, u.n, u.last, want.n, want.last)
		}
	}
	if u, ok := uses["res"]; ok {
		t.Errorf("sink res has uses %+v", u)
	}
}

// verticalFusion keeps one consumer index across its scans; after every
// splice it must equal an index built afresh from the graph.
func TestConsumerIndexTracksFusion(t *testing.T) {
	total := 0
	for _, name := range models.List() {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g := src.Clone()
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		fusions := map[string]Fusion{}
		uses := consumerIndex(g)
		for fuseOne(g, fusions, uses) != "" {
			total++
			if fresh := consumerIndex(g); !reflect.DeepEqual(uses, fresh) {
				t.Fatalf("%s: after %d fusions the kept index differs from a fresh one", name, total)
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d fusions across the zoo", total)
	}
}

// A conv whose output the caller declared keeps it: the ReLU after it is
// a layer of its own, not an epilogue overwriting the declared tensor.
func TestFusionKeepsDeclaredOutput(t *testing.T) {
	b := graph.NewBuilder("declared", [4]int{1, 4, 8, 8})
	b.Conv("c1", 8, 3, 1, 1).ReLU("r1").Conv("c2", 8, 3, 1, 1)
	b.G.Outputs = []string{"c1", "c2"}
	g := b.Done()
	materialize(t, g)
	cfg := nxCfg(1)
	cfg.Precision, cfg.PruneFrac = tensor.FP32, 0
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := e.Fusions["c1"]; f.Act != ActNone || len(f.Absorbed) != 0 {
		t.Fatalf("declared output c1 absorbed %v", f.Absorbed)
	}
	x := tensor.New(1, 4, 8, 8)
	src := fixrand.NewKeyed("declared-output")
	for i := range x.Data {
		x.Data[i] = float32(src.NormFloat64())
	}
	want, err := g.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	negative := false
	for i, name := range g.Outputs {
		for j, v := range want[i].Data {
			negative = negative || name == "c1" && v < 0
			if d := math.Abs(float64(got[i].Data[j] - v)); d > 1e-4 {
				t.Fatalf("output %s[%d] = %v, reference %v", name, j, got[i].Data[j], v)
			}
		}
	}
	if !negative {
		t.Fatal("c1 has no negative element, so the test cannot see a fused ReLU")
	}
}
