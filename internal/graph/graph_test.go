package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// smallNet builds a tiny LeNet-ish classifier used across tests.
func smallNet() *Graph {
	return NewBuilder("smallnet", [4]int{1, 3, 16, 16}).
		Conv("conv1", 8, 3, 1, 1).ReLU("relu1").
		MaxPool("pool1", 2, 2, 0).
		Conv("conv2", 16, 3, 1, 1).ReLU("relu2").
		MaxPool("pool2", 2, 2, 0).
		FC("fc", 10).Softmax("prob").Done()
}

// branchNet builds a graph with a residual add and an inception-style
// concat, exercising multi-input shape inference.
func branchNet() *Graph {
	b := NewBuilder("branchnet", [4]int{1, 4, 8, 8})
	b.Conv("stem", 8, 3, 1, 1)
	b.From("stem").Conv("b1", 8, 3, 1, 1)
	b.From("stem").Conv("b2", 8, 1, 1, 0)
	b.From("b1").AddJoin("res", "b2")
	b.From("stem").Conv("c1", 4, 1, 1, 0)
	b.ConcatJoin("cat", "res", "c1")
	b.From("cat").GlobalAvgPool("gap").FC("fc", 5)
	return b.Done()
}

func TestFinalizeShapes(t *testing.T) {
	g := smallNet()
	cases := map[string][4]int{
		"conv1": {1, 8, 16, 16},
		"pool1": {1, 8, 8, 8},
		"conv2": {1, 16, 8, 8},
		"pool2": {1, 16, 4, 4},
		"fc":    {1, 10, 1, 1},
		"prob":  {1, 10, 1, 1},
	}
	for name, want := range cases {
		if got := g.Layer(name).OutShape; got != want {
			t.Errorf("%s shape %v want %v", name, got, want)
		}
	}
	if len(g.Outputs) != 1 || g.Outputs[0] != "prob" {
		t.Fatalf("outputs %v", g.Outputs)
	}
}

func TestBranchShapes(t *testing.T) {
	g := branchNet()
	if got := g.Layer("res").OutShape; got != [4]int{1, 8, 8, 8} {
		t.Fatalf("res shape %v", got)
	}
	if got := g.Layer("cat").OutShape; got != [4]int{1, 12, 8, 8} {
		t.Fatalf("cat shape %v", got)
	}
	if got := g.Layer("fc").OutShape; got != [4]int{1, 5, 1, 1} {
		t.Fatalf("fc shape %v", got)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate layer")
		}
	}()
	b := NewBuilder("dup", [4]int{1, 1, 4, 4})
	b.Conv("x", 1, 1, 1, 0).Conv("x", 1, 1, 1, 0)
}

func TestUnknownInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown input")
		}
	}()
	g := New("bad", [4]int{1, 1, 4, 4})
	g.Add(&Layer{Name: "l", Op: OpReLU, Inputs: []string{"nope"}})
}

func TestCycleDetected(t *testing.T) {
	g := New("cyc", [4]int{1, 1, 4, 4})
	g.Add(&Layer{Name: "a", Op: OpReLU, Inputs: []string{"data"}})
	g.Add(&Layer{Name: "b", Op: OpReLU, Inputs: []string{"a"}})
	// introduce the cycle behind the API's back
	g.Layer("a").Inputs = []string{"b"}
	if sorted, ok := g.Acyclic(); ok || sorted != 1 {
		t.Fatalf("Acyclic() = %d, %v; want 1 of 3 sorted, false", sorted, ok)
	}
	if g.Layers[1].Name != "a" || g.Layers[2].Name != "b" {
		t.Fatal("Acyclic reordered the layers")
	}
	if err := g.Finalize(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoSortOrder(t *testing.T) {
	g := branchNet()
	pos := map[string]int{}
	for i, l := range g.Layers {
		pos[l.Name] = i
	}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if pos[in] >= pos[l.Name] {
				t.Fatalf("layer %s before its input %s", l.Name, in)
			}
		}
	}
}

func TestParamCount(t *testing.T) {
	g := smallNet()
	// conv1: 8*3*3*3 + 8 = 224
	if got := g.ParamCount(g.Layer("conv1")); got != 224 {
		t.Fatalf("conv1 params %d want 224", got)
	}
	// fc: input 16*4*4=256 -> 10: 2560 + 10
	if got := g.ParamCount(g.Layer("fc")); got != 2570 {
		t.Fatalf("fc params %d want 2570", got)
	}
	if g.TotalParams() <= 0 {
		t.Fatal("total params not positive")
	}
}

func TestFLOPs(t *testing.T) {
	g := smallNet()
	// conv1: 2 * (1*8*16*16) * (3*3*3) = 110592
	if got := g.FLOPs(g.Layer("conv1")); got != 110592 {
		t.Fatalf("conv1 flops %d want 110592", got)
	}
	if g.TotalFLOPs() <= g.FLOPs(g.Layer("conv1")) {
		t.Fatal("total flops should exceed a single layer")
	}
}

func TestModelSizeBytes(t *testing.T) {
	g := smallNet()
	want := g.TotalParams()*4 + int64(len(g.Layers))*256
	if got := g.ModelSizeBytes(); got != want {
		t.Fatalf("size %d want %d", got, want)
	}
}

func TestCountOps(t *testing.T) {
	g := smallNet()
	m := g.CountOps()
	if m[OpConv] != 2 || m[OpMaxPool] != 2 || m[OpFC] != 1 {
		t.Fatalf("op counts %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := smallNet()
	materialize(g)
	c := g.Clone()
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	c.Layer("conv1").Weights["w"].Data[0] = 999
	if g.Layer("conv1").Weights["w"].Data[0] == 999 {
		t.Fatal("clone shares weights")
	}
	c.Remove("relu1")
	if g.Layer("relu1") == nil {
		t.Fatal("clone removal affected original")
	}
}

func TestRemoveSplices(t *testing.T) {
	g := smallNet()
	g.Remove("relu1")
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := g.Layer("pool1").Inputs[0]; got != "conv1" {
		t.Fatalf("pool1 input %q want conv1", got)
	}
}

func TestRemoveOutputRedirects(t *testing.T) {
	g := smallNet()
	g.Remove("prob")
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if g.Outputs[0] != "fc" {
		t.Fatalf("output %v want fc", g.Outputs)
	}
}

// materialize fills every parametric layer with small random weights.
func materialize(g *Graph) {
	src := fixrand.NewKeyed("test-weights/" + g.Name)
	for _, l := range g.Layers {
		switch l.Op {
		case OpConv:
			in := g.Layer(l.Inputs[0]).OutShape
			groups := l.Conv.Groups
			if groups == 0 {
				groups = 1
			}
			w := tensor.New(l.Conv.OutC, in[1]/groups, l.Conv.Kernel, l.Conv.Kernel)
			for i := range w.Data {
				w.Data[i] = float32(src.NormFloat64()) * 0.1
			}
			b := tensor.NewVec(l.Conv.OutC)
			l.Weights["w"], l.Weights["b"] = w, b
		case OpFC:
			in := g.Layer(l.Inputs[0]).OutShape
			n := in[1] * in[2] * in[3]
			w := tensor.New(1, l.OutUnits*n, 1, 1)
			for i := range w.Data {
				w.Data[i] = float32(src.NormFloat64()) * 0.1
			}
			l.Weights["w"], l.Weights["b"] = w, tensor.NewVec(l.OutUnits)
		case OpBatchNorm:
			in := g.Layer(l.Inputs[0]).OutShape
			gamma, beta := tensor.NewVec(in[1]), tensor.NewVec(in[1])
			mean, variance := tensor.NewVec(in[1]), tensor.NewVec(in[1])
			gamma.Fill(1)
			variance.Fill(1)
			l.Weights["gamma"], l.Weights["beta"] = gamma, beta
			l.Weights["mean"], l.Weights["var"] = mean, variance
		}
	}
}

func TestExecuteShapes(t *testing.T) {
	g := smallNet()
	materialize(g)
	x := tensor.New(1, 3, 16, 16)
	outs, err := g.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("%d outputs", len(outs))
	}
	if outs[0].Shape() != [4]int{1, 10, 1, 1} {
		t.Fatalf("output shape %v", outs[0].Shape())
	}
}

func TestExecuteBranch(t *testing.T) {
	g := branchNet()
	materialize(g)
	src := fixrand.NewKeyed("xin")
	x := tensor.New(1, 4, 8, 8)
	for i := range x.Data {
		x.Data[i] = float32(src.NormFloat64())
	}
	outs, err := g.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Shape() != [4]int{1, 5, 1, 1} {
		t.Fatalf("output shape %v", outs[0].Shape())
	}
}

func TestExecuteRejectsWrongInput(t *testing.T) {
	g := smallNet()
	materialize(g)
	if _, err := g.Execute(tensor.New(1, 1, 16, 16)); err == nil {
		t.Fatal("wrong input accepted")
	}
}

func TestExecuteRequiresFinalize(t *testing.T) {
	g := New("raw", [4]int{1, 1, 4, 4})
	if _, err := g.Execute(tensor.New(1, 1, 4, 4)); err == nil {
		t.Fatal("unfinalized graph executed")
	}
}

func TestDropoutIsIdentityAtInference(t *testing.T) {
	g := NewBuilder("dp", [4]int{1, 2, 4, 4}).Dropout("drop").Done()
	x := tensor.New(1, 2, 4, 4)
	x.Fill(3)
	outs, err := g.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range outs[0].Data {
		if v != 3 {
			t.Fatal("dropout altered values at inference")
		}
	}
}

// Property: topological sort of random layered DAGs always places inputs
// before consumers, and shape inference of pass-through chains preserves
// the input shape.
func TestRandomChainShapeProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		src := fixrand.New(seed)
		n := int(nRaw%10) + 1
		b := NewBuilder("chain", [4]int{1, 3, 8, 8})
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			switch src.Intn(4) {
			case 0:
				b.ReLU("r" + name)
			case 1:
				b.Sigmoid("s" + name)
			case 2:
				b.Dropout("d" + name)
			case 3:
				b.Scale("c" + name)
			}
		}
		g := b.Done()
		last := g.Layers[len(g.Layers)-1]
		return last.OutShape == [4]int{1, 3, 8, 8}
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutputShapes(t *testing.T) {
	g := branchNet()
	shapes := g.OutputShapes()
	if len(shapes) != 1 || shapes[0] != [4]int{1, 5, 1, 1} {
		t.Fatalf("output shapes %v", shapes)
	}
}

func TestOpString(t *testing.T) {
	if OpConv.String() != "conv" || OpType(250).String() == "" {
		t.Fatal("op string broken")
	}
}

func TestDOTRendering(t *testing.T) {
	g := branchNet()
	dot := g.DOT()
	for _, want := range []string{"digraph", `"stem" -> "b1"`, "fillcolor=lightblue", "rankdir"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// every layer appears as a node
	for _, l := range g.Layers {
		if !strings.Contains(dot, `"`+l.Name+`"`) {
			t.Errorf("layer %s missing from DOT", l.Name)
		}
	}
}

func TestBuilderFullMenu(t *testing.T) {
	b := NewBuilder("menu", [4]int{1, 4, 16, 16})
	b.Conv("c1", 8, 3, 1, 1).
		BatchNorm("bn").
		LeakyReLU("lk", 0.1).
		AvgPool("ap", 2, 2, 0).
		LRN("lrn", 5, 1e-4, 0.75, 1).
		Sigmoid("sg").
		Scale("sc").
		Upsample("up").
		MaxPool("mp", 2, 2, 0).
		Dropout("dp").
		Flatten("fl").
		FC("fc", 4).
		Softmax("sm")
	g := b.Done()
	if g.Layer("up").OutShape != [4]int{1, 8, 16, 16} {
		t.Fatalf("upsample shape %v", g.Layer("up").OutShape)
	}
	if g.Layer("fl").OutShape != [4]int{1, 8 * 8 * 8, 1, 1} {
		t.Fatalf("flatten shape %v", g.Layer("fl").OutShape)
	}
	if got := g.Layer("fc").OutShape; got != [4]int{1, 4, 1, 1} {
		t.Fatalf("fc shape %v", got)
	}
}

func TestBuilderDWConv(t *testing.T) {
	g := NewBuilder("dw", [4]int{1, 8, 8, 8}).DWConv("d", 8, 3, 1, 1).Done()
	l := g.Layer("d")
	if l.Conv.Groups != 8 || l.OutShape != [4]int{1, 8, 8, 8} {
		t.Fatalf("dwconv %+v shape %v", l.Conv, l.OutShape)
	}
}

func TestFromUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBuilder("x", [4]int{1, 1, 4, 4}).From("nope")
}

func TestDonePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := NewBuilder("bad", [4]int{1, 1, 4, 4})
	// pooling larger than the input makes shape inference fail
	b.MaxPool("p", 14, 9, 0)
	b.Done()
}

func TestFinalizeErrorPaths(t *testing.T) {
	// concat with mismatched spatial dims
	g := New("badcat", [4]int{1, 2, 8, 8})
	g.Add(&Layer{Name: "a", Op: OpMaxPool, Inputs: []string{"data"}, Pool: tensor.PoolParams{Kernel: 2, Stride: 2}})
	g.Add(&Layer{Name: "c", Op: OpConcat, Inputs: []string{"data", "a"}})
	if err := g.Finalize(); err == nil {
		t.Fatal("spatial-mismatch concat accepted")
	}
	// add with mismatched channels
	g2 := New("badadd", [4]int{1, 2, 8, 8})
	g2.Add(&Layer{Name: "cv", Op: OpConv, Inputs: []string{"data"}, Conv: tensor.ConvParams{OutC: 4, Kernel: 1, Stride: 1}})
	g2.Add(&Layer{Name: "ad", Op: OpAdd, Inputs: []string{"data", "cv"}})
	if err := g2.Finalize(); err == nil {
		t.Fatal("shape-mismatch add accepted")
	}
	// fc without units
	g3 := New("badfc", [4]int{1, 2, 4, 4})
	g3.Add(&Layer{Name: "f", Op: OpFC, Inputs: []string{"data"}})
	if err := g3.Finalize(); err == nil {
		t.Fatal("fc without units accepted")
	}
	// conv groups that do not divide
	g4 := New("badgrp", [4]int{1, 3, 4, 4})
	g4.Add(&Layer{Name: "c", Op: OpConv, Inputs: []string{"data"}, Conv: tensor.ConvParams{OutC: 4, Kernel: 1, Stride: 1, Groups: 2}})
	if err := g4.Finalize(); err == nil {
		t.Fatal("indivisible groups accepted")
	}
	// single-input add
	g5 := New("badadd1", [4]int{1, 2, 4, 4})
	g5.Add(&Layer{Name: "a", Op: OpAdd, Inputs: []string{"data"}})
	if err := g5.Finalize(); err == nil {
		t.Fatal("1-input add accepted")
	}
}

func TestRemovePanics(t *testing.T) {
	g := branchNet()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic removing multi-input layer")
		}
	}()
	g.Remove("res")
}

func TestRemoveInputPanics(t *testing.T) {
	g := smallNet()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic removing input")
		}
	}()
	g.Remove("data")
}

func TestRemoveUnknownIsNoop(t *testing.T) {
	g := smallNet()
	n := len(g.Layers)
	g.Remove("ghost")
	if len(g.Layers) != n {
		t.Fatal("removing unknown layer changed the graph")
	}
}
