package planlint

import (
	"strings"
	"testing"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// testGraph builds data -> conv1 -> relu1 -> fc1 and finalizes it.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("t", [4]int{1, 3, 8, 8})
	layers := []*graph.Layer{
		{Name: "conv1", Op: graph.OpConv, Inputs: []string{"data"},
			Conv: tensor.ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}},
		{Name: "relu1", Op: graph.OpReLU, Inputs: []string{"conv1"}},
		{Name: "fc1", Op: graph.OpFC, Inputs: []string{"relu1"}, OutUnits: 10},
	}
	for _, l := range layers {
		if err := g.AddLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func validPlan(t *testing.T) Plan {
	t.Helper()
	return Plan{
		Graph:     testGraph(t),
		Precision: tensor.FP16,
		Launches:  [][]string{{"conv1", "relu1"}, {"fc1"}},
	}
}

func errorsOf(issues []Issue) []string {
	var out []string
	for _, i := range issues {
		if i.Severity == Error {
			out = append(out, i.String())
		}
	}
	return out
}

func wantError(t *testing.T, issues []Issue, substr string) {
	t.Helper()
	for _, e := range errorsOf(issues) {
		if strings.Contains(e, substr) {
			return
		}
	}
	t.Fatalf("no error containing %q in %v", substr, issues)
}

func TestCheckCleanPlan(t *testing.T) {
	if issues := Check(validPlan(t)); len(issues) != 0 {
		t.Fatalf("clean plan produced issues: %v", issues)
	}
}

func TestCheckNilGraph(t *testing.T) {
	wantError(t, Check(Plan{}), "no graph")
}

func TestCheckCycle(t *testing.T) {
	p := validPlan(t)
	// Rewire conv1 to consume relu1, closing conv1 -> relu1 -> conv1.
	p.Graph.Layer("conv1").Inputs = []string{"relu1"}
	wantError(t, Check(p), "cycle detected (1 of 4 layers reachable)")
	// Closing relu1 -> fc1 -> relu1 instead leaves data and conv1.
	p = validPlan(t)
	p.Graph.Layer("relu1").Inputs = []string{"fc1"}
	wantError(t, Check(p), "cycle detected (2 of 4 layers reachable)")
}

func TestCheckStructuralDefects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(g *graph.Graph)
		want   string
	}{
		{"duplicate-layer", func(g *graph.Graph) {
			g.Layers = append(g.Layers, &graph.Layer{Name: "conv1", Op: graph.OpReLU, Inputs: []string{"data"}})
		}, "duplicate layer name"},
		{"empty-name", func(g *graph.Graph) {
			g.Layers = append(g.Layers, &graph.Layer{Op: graph.OpReLU, Inputs: []string{"data"}})
		}, "empty name"},
		{"unknown-input", func(g *graph.Graph) {
			g.Layer("relu1").Inputs = []string{"ghost"}
		}, `unknown input "ghost"`},
		{"no-inputs", func(g *graph.Graph) {
			g.Layer("relu1").Inputs = nil
		}, "has no inputs"},
		{"self-input", func(g *graph.Graph) {
			g.Layer("relu1").Inputs = []string{"relu1"}
		}, "consumes its own output"},
		{"redeclared-input", func(g *graph.Graph) {
			g.Layers = append(g.Layers, &graph.Layer{Name: "data2", Op: graph.OpInput})
		}, "redeclares the input layer"},
		{"missing-output", func(g *graph.Graph) {
			g.Outputs = []string{"ghost"}
		}, `declared output "ghost" does not exist`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPlan(t)
			tc.mutate(p.Graph)
			wantError(t, Check(p), tc.want)
		})
	}
}

func TestCheckBadInputShape(t *testing.T) {
	p := validPlan(t)
	p.Graph.InputShape = [4]int{0, 3, 8, 8}
	wantError(t, Check(p), "non-positive dimension")

	p = validPlan(t)
	p.Graph.InputShape = [4]int{1 << 20, 1 << 20, 1 << 20, 1}
	wantError(t, Check(p), "exceeds")
}

func TestCheckShapeInference(t *testing.T) {
	p := validPlan(t)
	p.Graph.Layer("conv1").Conv.Stride = 0
	if issues := Check(p); !HasErrors(issues) {
		t.Fatalf("zero-stride conv passed: %v", issues)
	}
}

func TestCheckFusionLegality(t *testing.T) {
	p := validPlan(t)
	p.Fusions = map[string][]string{"ghost": nil}
	wantError(t, Check(p), "fusion primary does not exist")

	p = validPlan(t)
	p.Fusions = map[string][]string{"relu1": nil}
	wantError(t, Check(p), "only conv and fc launch fused epilogues")

	// An absorbed layer still present in the graph would execute twice.
	p = validPlan(t)
	p.Fusions = map[string][]string{"conv1": {"relu1"}}
	wantError(t, Check(p), `absorbed layer "relu1" still present`)

	// A legal fusion: conv1 absorbed a layer that was spliced out.
	p = validPlan(t)
	p.Fusions = map[string][]string{"conv1": {"spliced-relu"}}
	if issues := Check(p); HasErrors(issues) {
		t.Fatalf("legal fusion flagged: %v", issues)
	}
}

func TestCheckQuantRangeCoverage(t *testing.T) {
	p := validPlan(t)
	p.Precision = tensor.INT8
	p.Numeric = true
	p.Int8Ranges = map[string]float32{"data": 1, "relu1": 1}
	if issues := Check(p); HasErrors(issues) {
		t.Fatalf("covered INT8 plan flagged: %v", issues)
	}
	p.Int8Ranges = map[string]float32{"data": 1}
	wantError(t, Check(p), "no calibrated range")

	// Non-INT8 and non-numeric plans need no ranges.
	p = validPlan(t)
	p.Precision = tensor.INT8
	if issues := Check(p); HasErrors(issues) {
		t.Fatalf("timing-only INT8 plan flagged: %v", issues)
	}
}

func TestCheckDeadLayers(t *testing.T) {
	p := validPlan(t)
	// Declare only fc1 (already the sink): nothing dead.
	if issues := Check(p); len(issues) != 0 {
		t.Fatalf("unexpected issues: %v", issues)
	}
	// Point the output at relu1: fc1 becomes dead (warn, not error).
	p.Graph.Outputs = []string{"relu1"}
	p.Launches = [][]string{{"conv1", "relu1"}} // fc1 launch gone too
	issues := Check(p)
	if HasErrors(issues) {
		t.Fatalf("dead layer should warn, not error: %v", issues)
	}
	found := false
	for _, i := range issues {
		if i.Check == "dead-layer" && i.Layer == "fc1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead fc1 not flagged: %v", issues)
	}
}

func TestCheckDropoutWarns(t *testing.T) {
	p := validPlan(t)
	g := p.Graph
	if err := g.AddLayer(&graph.Layer{Name: "drop", Op: graph.OpDropout, Inputs: []string{"fc1"}}); err != nil {
		t.Fatal(err)
	}
	g.Outputs = []string{"drop"}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.Launches = nil
	issues := Check(p)
	found := false
	for _, i := range issues {
		if i.Check == "dead-layer" && i.Layer == "drop" && strings.Contains(i.Message, "dropout") {
			found = true
		}
	}
	if !found {
		t.Fatalf("surviving dropout not flagged: %v", issues)
	}
}

func TestCheckLaunches(t *testing.T) {
	p := validPlan(t)
	p.Launches = [][]string{{"conv1", "ghost"}, {"fc1"}}
	wantError(t, Check(p), "missing from the graph")

	// No name is exempt: the runtime charges every launch to a layer.
	p = validPlan(t)
	p.Launches = [][]string{{"conv1", "relu1"}, {"fc1"}, {"nms"}}
	wantError(t, Check(p), "missing from the graph")

	// Nor is a launch that names no layer at all.
	p = validPlan(t)
	p.Launches = [][]string{{"conv1", "relu1"}, {"fc1"}, {}}
	wantError(t, Check(p), "names no layer")

	// A tuned layer covered by no launch is a warning.
	p = validPlan(t)
	p.Launches = [][]string{{"conv1", "relu1"}}
	issues := Check(p)
	if HasErrors(issues) {
		t.Fatalf("uncovered fc should warn, not error: %v", issues)
	}
	if len(issues) == 0 {
		t.Fatal("uncovered fc1 not flagged")
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors([]Issue{{Severity: Warn}}) {
		t.Fatal("warn counted as error")
	}
	if !HasErrors([]Issue{{Severity: Warn}, {Severity: Error}}) {
		t.Fatal("error not counted")
	}
}
