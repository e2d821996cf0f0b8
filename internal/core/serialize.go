package core

import (
	"encoding/json"
	"fmt"
	"io"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/planlint"
	"edgeinfer/internal/tensor"
)

// Engine plan files: a magic tag, a JSON header describing the optimized
// graph and kernel plan, and a binary weight section. The analogue of a
// serialized TensorRT engine — and like one, a plan built on one platform
// can be deserialized and run on another (the paper's cNX_rAGX cases).

const planMagic = "EDGERT01"

// maxHeaderBytes bounds the header JSON of an untrusted plan; the weight
// section's record and tensor bounds live with its codec in graph.
const maxHeaderBytes = 64 << 20

// maxPlanElems bounds the activation memory a loaded numeric plan may
// ask Infer for, in FP32 elements (64 MiB): every layer's output shape,
// and the total of the context slots compile plans. The largest numeric
// graph in the repository, a classifier proxy, peaks at 3 072 elements
// per activation and plans 6 144; the largest activation of full-scale
// VGG-16 (64×224×224, 3.2M) would still load.
const maxPlanElems = 1 << 24

type planHeader struct {
	ModelName      string
	Platform       string
	BuildID        int
	Precision      tensor.Precision
	Numeric        bool
	RemovedLayers  int
	FusedLayers    int
	MergedLaunches int

	Framework  string
	Task       string
	InputShape [4]int
	Outputs    []string
	Layers     []graph.LayerRecord

	Choices    map[string]kernels.Variant
	Fusions    map[string]Fusion
	Int8Ranges map[string]float32 `json:",omitempty"`
	Launches   []Launch
	Report     *BuildReport `json:",omitempty"`
}

// Save serializes the engine to a writer. Before emitting a single byte
// it runs the static plan-IR verifier (planlint): a plan that fails
// verification is refused, so no malformed engine ever reaches disk.
func (e *Engine) Save(w io.Writer) error {
	if issues := e.VerifyPlan(); planlint.HasErrors(issues) {
		return fmt.Errorf("core: refusing to serialize %s: plan fails IR verification: %s",
			e.Key(), firstErrors(issues, 3))
	}
	layers, weights := e.Graph.Records()
	hb, err := json.Marshal(planHeader{
		ModelName: e.ModelName, Platform: e.Platform, BuildID: e.BuildID,
		Precision: e.Precision, Numeric: e.Numeric,
		RemovedLayers: e.RemovedLayers, FusedLayers: e.FusedLayers,
		MergedLaunches: e.MergedLaunches,
		Framework:      e.Graph.Framework, Task: e.Graph.Task,
		InputShape: e.Graph.InputShape, Outputs: e.Graph.Outputs, Layers: layers,
		Choices: e.Choices, Fusions: e.Fusions, Launches: e.Launches,
		Int8Ranges: e.Int8Ranges, Report: e.Report,
	})
	if err != nil {
		return fmt.Errorf("core: marshal plan header: %w", err)
	}
	fw := framed.NewWriter(w)
	fw.Magic(planMagic)
	fw.Bytes(hb)
	if err := graph.WriteWeights(fw, weights); err != nil {
		return err
	}
	return fw.Flush()
}

// decodePlan reads a plan stream — magic, header JSON, weight section —
// enforcing every length and shape bound, and assembles the header's
// graph through the error-returning record constructor; a malformed
// topology surfaces as an error, never a panic. Weights are returned
// unattached, for admit to attach one by one.
func decodePlan(r io.Reader) (*planHeader, *graph.Graph, []graph.WeightRecord, error) {
	fr := framed.NewReader(r)
	fr.Magic(planMagic)
	hb := fr.Bytes("plan header", maxHeaderBytes)
	if err := fr.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("read plan: %w", err)
	}
	var h planHeader
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, nil, nil, fmt.Errorf("unmarshal plan header: %w", err)
	}
	g, err := graph.FromRecords(h.ModelName, h.InputShape, h.Layers)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("plan topology: %w", err)
	}
	g.Framework, g.Task, g.Outputs = h.Framework, h.Task, h.Outputs
	weights, err := graph.ReadWeights(fr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("read plan: %w", err)
	}
	return &h, g, weights, nil
}

// admit is the one gate a serialized plan passes to become an engine:
// decode, attach the weights, verify the plan IR (VerifyPlan, the check
// Save runs), then finalize, compile, charge the launches and bound the
// activations. Every failure is an issue, so a corrupt plan yields a
// verdict instead of an exception. The engine is nil exactly when an
// issue is error-severity: Load and VerifyPlanData are two views of
// this one verdict.
func admit(r io.Reader) (*Engine, []planlint.Issue) {
	h, g, weights, err := decodePlan(r)
	if err != nil {
		return nil, []planlint.Issue{{Check: "decode", Severity: planlint.Error, Message: err.Error()}}
	}
	var issues []planlint.Issue
	// Weights are attached before Finalize so BN shape checks see them.
	for _, w := range weights {
		if err := g.AttachWeight(w); err != nil {
			issues = append(issues, planlint.Issue{Check: "weights", Severity: planlint.Error,
				Layer: w.Layer, Message: err.Error()})
		}
	}
	e := &Engine{
		ModelName: h.ModelName, Platform: h.Platform, BuildID: h.BuildID,
		Precision: h.Precision, Numeric: h.Numeric, Graph: g,
		Choices: h.Choices, Fusions: h.Fusions, Launches: h.Launches,
		Int8Ranges:    h.Int8Ranges,
		RemovedLayers: h.RemovedLayers, FusedLayers: h.FusedLayers,
		MergedLaunches: h.MergedLaunches, Report: h.Report,
	}
	if issues = append(issues, e.VerifyPlan()...); planlint.HasErrors(issues) {
		return nil, issues
	}
	err = g.Finalize()
	if err == nil {
		e.plan, e.charge = compile(e), chargeLayers(e)
		err = e.boundActivations()
	}
	if err != nil {
		return nil, append(issues, planlint.Issue{Check: "shapes", Severity: planlint.Error, Message: err.Error()})
	}
	return e, issues
}

// Load deserializes an engine plan through admit. Plan files are
// untrusted input: truncated, bit-flipped or hostile plans — and plans
// the verifier rejects — return an error carrying the first
// error-severity issue; never a panic, and never an allocation driven by
// an unvalidated length field.
func Load(r io.Reader) (*Engine, error) {
	e, issues := admit(r)
	if e == nil {
		return nil, fmt.Errorf("core: plan rejected: %s", firstErrors(issues, 1))
	}
	return e, nil
}

// boundActivations rejects a numeric engine that would ask Infer for
// more than maxPlanElems of activation memory: in one layer's output, or
// in the context slots its schedule plans. compile only sums the sizes;
// nothing is allocated until a context is checked out.
func (e *Engine) boundActivations() error {
	if e.plan == nil {
		return nil
	}
	for _, l := range e.Graph.Layers {
		if _, ok := boundedElems(l.OutShape); !ok {
			return fmt.Errorf("plan layer %s: activation %v exceeds %d elements", l.Name, l.OutShape, maxPlanElems)
		}
	}
	total := 0 // each slot holds a bounded activation: no overflow
	for _, n := range e.plan.slotLen {
		total += n
	}
	if total > maxPlanElems {
		return fmt.Errorf("plan %s: activation slots total %d elements, over %d", e.Key(), total, maxPlanElems)
	}
	return nil
}

// boundedElems returns the element count of a shape whose every
// dimension is positive and whose count is at most maxPlanElems; ok is
// false otherwise. It never overflows, whatever the shape.
func boundedElems(s [4]int) (n int, ok bool) {
	n = 1
	for _, d := range s {
		if d < 1 || d > maxPlanElems {
			return 0, false
		}
		if n *= d; n > maxPlanElems {
			return 0, false
		}
	}
	return n, true
}

// SaveFile writes the engine plan to a file path, crash-safely.
func (e *Engine) SaveFile(path string) error { return framed.SaveFile(path, e.Save) }

// LoadFile reads an engine plan from a file path.
func LoadFile(path string) (*Engine, error) { return framed.LoadFile(path, Load) }
