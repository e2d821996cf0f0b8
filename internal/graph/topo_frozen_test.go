package graph

import (
	"fmt"
	"strconv"
	"testing"

	"edgeinfer/internal/fixrand"
)

// frozenTopoSort is topoSort as it stood when it kept in-degrees and
// dependents in maps keyed by layer name, frozen verbatim.
func (g *Graph) frozenTopoSort() ([]*Layer, error) {
	indeg := map[string]int{}
	dependents := map[string][]string{}
	for _, l := range g.Layers {
		indeg[l.Name] += 0
		for _, in := range l.Inputs {
			indeg[l.Name]++
			dependents[in] = append(dependents[in], l.Name)
		}
	}
	var queue []string
	for _, l := range g.Layers { // insertion order keeps sort stable
		if indeg[l.Name] == 0 {
			queue = append(queue, l.Name)
		}
	}
	var sorted []*Layer
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		sorted = append(sorted, g.byName[name])
		for _, d := range dependents[name] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(sorted) != len(g.Layers) {
		return nil, fmt.Errorf("graph %s: cycle detected (%d of %d layers sorted)", g.Name, len(sorted), len(g.Layers))
	}
	return sorted, nil
}

// randomLayers builds a layer list in shuffled insertion order that is
// mostly a DAG, with several sources, repeated inputs (Add(x, x)) and,
// at the given per-input rates, inputs naming no layer, back edges
// (cycles, self-loops included) and reused layer names. The name index
// holds the first layer of each name, as AddLayer would have left it.
func randomLayers(r *fixrand.Source, n int, unknown, back, dupName float64) *Graph {
	g := New("rand", [4]int{1, 1, 1, 1})
	names := []string{"data"}
	for i := 1; i < n; i++ {
		name := "l" + strconv.Itoa(i)
		if r.Float64() < dupName {
			name = names[r.Intn(len(names))]
		}
		names = append(names, name)
		l := &Layer{Name: name, Op: OpAdd}
		// k = -1 leaves a second source, which the queue must seed in
		// insertion order.
		for k := r.Intn(5) - 1; k >= 0; k-- {
			var in string
			switch u := r.Float64(); {
			case u < unknown:
				in = "ghost" + strconv.Itoa(r.Intn(3))
			case u < unknown+back:
				in = "l" + strconv.Itoa(i+r.Intn(n-i))
			default:
				in = names[r.Intn(i)]
			}
			l.Inputs = append(l.Inputs, in)
			if r.Float64() < 0.2 {
				l.Inputs = append(l.Inputs, in)
			}
		}
		g.Layers = append(g.Layers, l)
		if g.byName[name] == nil {
			g.byName[name] = l
		}
	}
	r.Shuffle(len(g.Layers), func(i, j int) { g.Layers[i], g.Layers[j] = g.Layers[j], g.Layers[i] })
	return g
}

// The index-based topoSort returns what the map-based one did — the same
// layers in the same order, or the same error — on every graph shape a
// plan or an import can present.
func TestTopoSortMatchesFrozen(t *testing.T) {
	r := fixrand.NewKeyed("graph/toposort")
	rates := []struct{ unknown, back, dupName float64 }{
		{0, 0, 0}, {0.05, 0, 0}, {0, 0.05, 0}, {0, 0, 0.1}, {0.03, 0.03, 0.05},
	}
	sorts, errs := 0, 0
	for trial := 0; trial < 3000; trial++ {
		rt := rates[trial%len(rates)]
		g := randomLayers(r, 1+r.Intn(40), rt.unknown, rt.back, rt.dupName)
		got, err := g.topoSort()
		want, werr := g.frozenTopoSort()
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("trial %d: error %v, frozen %v", trial, err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: sorted %d layers, frozen %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d holds %q, frozen %q", trial, i, got[i].Name, want[i].Name)
			}
		}
		if err != nil {
			errs++
		} else {
			sorts++
		}
	}
	if sorts < 500 || errs < 500 {
		t.Fatalf("generator is lopsided: %d sorted, %d failed", sorts, errs)
	}
}

// An input that names no layer is an error, not a reference to the
// first layer.
func TestTopoSortRejectsUnknownInput(t *testing.T) {
	g := New("ghost", [4]int{1, 1, 1, 1})
	l := &Layer{Name: "r", Op: OpReLU, Inputs: []string{"ghost"}}
	g.Layers = append(g.Layers, l)
	g.byName[l.Name] = l
	if _, err := g.topoSort(); err == nil {
		t.Fatal("a layer fed by an unknown name sorted")
	}
}
