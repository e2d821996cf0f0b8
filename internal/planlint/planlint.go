// Package planlint statically verifies engine-plan IR: the optimized
// graph, fusion metadata, quantization ranges and kernel-launch plan that
// internal/core serializes as an engine file. The builder runs these
// checks before serializing (a plan that fails IR verification is never
// written), the loader runs them before admitting a plan (one that fails
// is never run), and cmd/rtlint runs them over plan files on disk through
// that same admission gate.
//
// planlint never panics and never mutates the graph it is given: checks
// that need shape inference run it on a scratch copy.
package planlint

import (
	"fmt"
	"slices"
	"sort"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// Severity classifies an issue.
type Severity uint8

const (
	// Warn marks a suspicious but loadable plan (dead layers, layers the
	// launch plan never covers).
	Warn Severity = iota
	// Error marks a plan the runtime would reject or misexecute.
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Issue is one verification finding.
type Issue struct {
	Check    string // check name: "topology", "shapes", "fusion", ...
	Severity Severity
	Layer    string // offending layer, when attributable
	Message  string
}

// String implements fmt.Stringer.
func (i Issue) String() string {
	if i.Layer != "" {
		return fmt.Sprintf("%s: %s: layer %q: %s", i.Severity, i.Check, i.Layer, i.Message)
	}
	return fmt.Sprintf("%s: %s: %s", i.Severity, i.Check, i.Message)
}

// HasErrors reports whether any issue is error-severity.
func HasErrors(issues []Issue) bool {
	for _, i := range issues {
		if i.Severity == Error {
			return true
		}
	}
	return false
}

// Plan is the neutral view of an engine plan that planlint verifies.
// internal/core adapts both built Engines and raw deserialized headers
// into it.
type Plan struct {
	// Graph is the optimized network. It may be unfinalized; planlint
	// re-derives topology order and shapes itself.
	Graph *graph.Graph
	// Precision is the engine's numeric precision.
	Precision tensor.Precision
	// Numeric reports whether weights are materialized.
	Numeric bool
	// Fusions maps each fusion primary to the layer names it absorbed.
	Fusions map[string][]string
	// Int8Ranges are the calibrated activation ranges of INT8 engines.
	Int8Ranges map[string]float32
	// Launches lists the source layers of each kernel launch, in plan
	// order.
	Launches [][]string
}

// Check runs every verification pass and returns the issues sorted by
// check name then layer.
func Check(p Plan) []Issue {
	var issues []Issue
	if p.Graph == nil {
		return []Issue{{Check: "topology", Severity: Error, Message: "plan has no graph"}}
	}
	byName := make(map[string]*graph.Layer, len(p.Graph.Layers))
	for _, l := range p.Graph.Layers {
		byName[l.Name] = l
	}
	inShape := checkInputShape(p.Graph)
	issues = append(issues, inShape...)
	structural := checkStructure(p.Graph)
	issues = append(issues, structural...)
	acyclic := true
	if len(structural) == 0 {
		cyc := checkAcyclic(p.Graph)
		acyclic = len(cyc) == 0
		issues = append(issues, cyc...)
	}
	if len(structural) == 0 && acyclic && len(inShape) == 0 {
		issues = append(issues, checkShapes(p.Graph)...)
		issues = append(issues, checkDead(p.Graph, byName)...)
	}
	issues = append(issues, checkFusions(p, byName)...)
	issues = append(issues, checkQuantRanges(p)...)
	issues = append(issues, checkLaunches(p, byName)...)
	sort.SliceStable(issues, func(i, j int) bool {
		if issues[i].Check != issues[j].Check {
			return issues[i].Check < issues[j].Check
		}
		return issues[i].Layer < issues[j].Layer
	})
	return issues
}

// checkInputShape bounds the declared input shape.
func checkInputShape(g *graph.Graph) []Issue {
	var issues []Issue
	elems := int64(1)
	for _, d := range g.InputShape {
		if d < 1 {
			return []Issue{{Check: "topology", Severity: Error,
				Message: fmt.Sprintf("input shape %v has non-positive dimension", g.InputShape)}}
		}
		elems *= int64(d)
		if elems > graph.MaxTensorElems {
			return []Issue{{Check: "topology", Severity: Error,
				Message: fmt.Sprintf("input shape %v exceeds %d elements", g.InputShape, int64(graph.MaxTensorElems))}}
		}
	}
	return issues
}

// checkStructure validates names and input references without touching
// graph internals (the graph may have been assembled tolerantly).
func checkStructure(g *graph.Graph) []Issue {
	var issues []Issue
	seen := make(map[string]bool, len(g.Layers))
	inputs := 0
	for _, l := range g.Layers {
		if l.Name == "" {
			issues = append(issues, Issue{Check: "topology", Severity: Error, Message: "layer with empty name"})
			continue
		}
		if seen[l.Name] {
			issues = append(issues, Issue{Check: "topology", Severity: Error, Layer: l.Name, Message: "duplicate layer name"})
			continue
		}
		seen[l.Name] = true
		if l.Op == graph.OpInput {
			inputs++
			if inputs > 1 {
				issues = append(issues, Issue{Check: "topology", Severity: Error, Layer: l.Name, Message: "redeclares the input layer"})
			}
			continue
		}
		if len(l.Inputs) == 0 {
			issues = append(issues, Issue{Check: "topology", Severity: Error, Layer: l.Name, Message: "has no inputs"})
		}
	}
	if inputs == 0 {
		issues = append(issues, Issue{Check: "topology", Severity: Error, Message: "graph has no input layer"})
	}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			if !seen[in] {
				issues = append(issues, Issue{Check: "topology", Severity: Error, Layer: l.Name,
					Message: fmt.Sprintf("references unknown input %q", in)})
			}
			if in == l.Name {
				issues = append(issues, Issue{Check: "topology", Severity: Error, Layer: l.Name, Message: "consumes its own output"})
			}
		}
	}
	for _, o := range g.Outputs {
		if !seen[o] {
			issues = append(issues, Issue{Check: "topology", Severity: Error,
				Message: fmt.Sprintf("declared output %q does not exist", o)})
		}
	}
	return issues
}

// checkAcyclic reports a cycle in the layer DAG.
func checkAcyclic(g *graph.Graph) []Issue {
	if sorted, ok := g.Acyclic(); !ok {
		return []Issue{{Check: "topology", Severity: Error,
			Message: fmt.Sprintf("cycle detected (%d of %d layers reachable)", sorted, len(g.Layers))}}
	}
	return nil
}

// checkShapes re-runs shape inference on a scratch copy of the graph so
// operator parameters (conv stride/kernel/groups, FC widths, concat
// arities) are validated without mutating the plan under inspection.
// Only called once structure and acyclicity hold.
func checkShapes(g *graph.Graph) []Issue {
	scratch := graph.New(g.Name, g.InputShape)
	scratch.Layers = slices.Grow(scratch.Layers, len(g.Layers))
	// One array holds every copy; weights are shared read-only, and
	// shape inference ignores them.
	copies := make([]graph.Layer, len(g.Layers))
	for i, l := range g.Layers {
		if l.Op == graph.OpInput {
			continue
		}
		copies[i] = *l
		copies[i].OutShape = [4]int{}
		if err := scratch.AddLayer(&copies[i]); err != nil {
			return []Issue{{Check: "shapes", Severity: Error, Layer: l.Name, Message: err.Error()}}
		}
	}
	scratch.Outputs = append([]string(nil), g.Outputs...)
	if err := scratch.Finalize(); err != nil {
		return []Issue{{Check: "shapes", Severity: Error, Message: err.Error()}}
	}
	return nil
}

// checkDead flags layers that cannot reach a declared output and
// training-only ops the dead-layer pass should have removed.
func checkDead(g *graph.Graph, byName map[string]*graph.Layer) []Issue {
	outputs := g.Outputs
	if len(outputs) == 0 {
		return nil // sinks become outputs at finalize; nothing is dead yet
	}
	live := make(map[string]bool, len(g.Layers))
	var mark func(string)
	mark = func(name string) {
		if live[name] || byName[name] == nil {
			return
		}
		live[name] = true
		for _, in := range byName[name].Inputs {
			mark(in)
		}
	}
	for _, o := range outputs {
		mark(o)
	}
	var issues []Issue
	for _, l := range g.Layers {
		if !live[l.Name] {
			issues = append(issues, Issue{Check: "dead-layer", Severity: Warn, Layer: l.Name,
				Message: "cannot reach any declared output"})
		}
		if l.Op == graph.OpDropout {
			issues = append(issues, Issue{Check: "dead-layer", Severity: Warn, Layer: l.Name,
				Message: "training-only dropout survives in an optimized plan"})
		}
	}
	return issues
}

// checkFusions verifies fusion legality: a primary must exist and be a
// conv or FC layer, and every absorbed layer must have been spliced out
// of the optimized graph (an absorbed layer still present would execute
// twice).
func checkFusions(p Plan, byName map[string]*graph.Layer) []Issue {
	var issues []Issue
	primaries := make([]string, 0, len(p.Fusions))
	for primary := range p.Fusions {
		primaries = append(primaries, primary)
	}
	sort.Strings(primaries)
	for _, primary := range primaries {
		l := byName[primary]
		if l == nil {
			issues = append(issues, Issue{Check: "fusion", Severity: Error, Layer: primary,
				Message: "fusion primary does not exist in the graph"})
			continue
		}
		if l.Op != graph.OpConv && l.Op != graph.OpFC {
			issues = append(issues, Issue{Check: "fusion", Severity: Error, Layer: primary,
				Message: fmt.Sprintf("fusion primary has op %s; only conv and fc launch fused epilogues", l.Op)})
		}
		for _, absorbed := range p.Fusions[primary] {
			if byName[absorbed] != nil {
				issues = append(issues, Issue{Check: "fusion", Severity: Error, Layer: primary,
					Message: fmt.Sprintf("absorbed layer %q still present in the graph", absorbed)})
			}
		}
	}
	return issues
}

// checkQuantRanges verifies INT8 calibration coverage: every quantized
// conv/FC kernel reads its input through the calibrated range of the
// producer layer, so a missing range silently quantizes against zero.
func checkQuantRanges(p Plan) []Issue {
	if p.Precision != tensor.INT8 || !p.Numeric {
		return nil
	}
	var issues []Issue
	for _, l := range p.Graph.Layers {
		if l.Op != graph.OpConv && l.Op != graph.OpFC {
			continue
		}
		if len(l.Inputs) == 0 {
			continue // topology check owns this
		}
		producer := l.Inputs[0]
		if _, ok := p.Int8Ranges[producer]; !ok {
			issues = append(issues, Issue{Check: "quantization", Severity: Error, Layer: l.Name,
				Message: fmt.Sprintf("INT8 engine has no calibrated range for input producer %q", producer)})
		}
	}
	return issues
}

// checkLaunches verifies the kernel plan against the graph: every launch
// must name at least one layer and only existing ones (the runtime
// charges each launch to the last layer it names), and every tuned op
// (conv/FC) should be covered by some launch.
func checkLaunches(p Plan, byName map[string]*graph.Layer) []Issue {
	if p.Launches == nil {
		return nil
	}
	covered := make(map[string]bool, len(p.Graph.Layers))
	var issues []Issue
	for i, layers := range p.Launches {
		if len(layers) == 0 {
			issues = append(issues, Issue{Check: "launches", Severity: Error,
				Message: fmt.Sprintf("launch %d names no layer", i)})
		}
		for _, name := range layers {
			covered[name] = true
			if byName[name] == nil {
				issues = append(issues, Issue{Check: "launches", Severity: Error, Layer: name,
					Message: fmt.Sprintf("launch %d references a layer missing from the graph", i)})
			}
		}
	}
	for _, l := range p.Graph.Layers {
		if (l.Op == graph.OpConv || l.Op == graph.OpFC) && !covered[l.Name] {
			issues = append(issues, Issue{Check: "launches", Severity: Warn, Layer: l.Name,
				Message: "tuned layer is covered by no kernel launch"})
		}
	}
	return issues
}
