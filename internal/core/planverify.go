package core

import (
	"fmt"
	"io"
	"os"
	"strings"

	"edgeinfer/internal/planlint"
)

// Static plan-IR verification. The builder refuses to serialize a plan
// that fails these checks (see Engine.Save), and cmd/rtlint applies them
// to plan files on disk — catching statically every malformed-plan class
// the runtime loader rejects dynamically, plus semantic defects the
// loader cannot see (illegal fusions, missing calibration ranges, dead
// layers, launch/graph mismatches).

// planView adapts the engine to planlint's neutral plan representation.
func (e *Engine) planView() planlint.Plan {
	fusions := make(map[string][]string, len(e.Fusions))
	for primary, f := range e.Fusions {
		fusions[primary] = f.Absorbed
	}
	launches := make([][]string, len(e.Launches))
	for i, l := range e.Launches {
		launches[i] = l.Layers
	}
	return planlint.Plan{
		Graph:      e.Graph,
		Precision:  e.Precision,
		Numeric:    e.Numeric,
		Fusions:    fusions,
		Int8Ranges: e.Int8Ranges,
		Launches:   launches,
	}
}

// VerifyPlan statically verifies the engine's plan IR and returns every
// issue found. A freshly built engine verifies clean; Save refuses any
// engine with error-severity issues.
func (e *Engine) VerifyPlan() []planlint.Issue {
	return planlint.Check(e.planView())
}

// firstErrors renders up to n error-severity issues for error messages.
func firstErrors(issues []planlint.Issue, n int) string {
	var parts []string
	for _, i := range issues {
		if i.Severity != planlint.Error {
			continue
		}
		parts = append(parts, i.String())
		if len(parts) == n {
			break
		}
	}
	return strings.Join(parts, "; ")
}

// VerifyPlanData statically verifies a serialized plan stream without
// constructing a runnable engine. Decode and topology failures are
// reported as issues rather than errors, so a corrupt plan yields a
// verdict instead of an exception — the static twin of Load's dynamic
// rejection.
func VerifyPlanData(r io.Reader) []planlint.Issue {
	h, g, weights, err := decodePlan(r)
	if err != nil {
		return []planlint.Issue{{Check: "decode", Severity: planlint.Error, Message: err.Error()}}
	}
	var issues []planlint.Issue
	for _, w := range weights {
		if err := g.AttachWeight(w); err != nil {
			issues = append(issues, planlint.Issue{Check: "weights", Severity: planlint.Error,
				Layer: w.Layer, Message: err.Error()})
		}
	}
	// The plan IR is all VerifyPlan reads: this engine is never run.
	ir := Engine{Graph: g, Precision: h.Precision, Numeric: h.Numeric,
		Fusions: h.Fusions, Int8Ranges: h.Int8Ranges, Launches: h.Launches}
	issues = append(issues, ir.VerifyPlan()...)
	// Load's activation bound reads the shapes and the planned slots.
	if !planlint.HasErrors(issues) && ir.Numeric && g.Finalize() == nil {
		ir.plan = compile(&ir)
		if err := ir.boundActivations(); err != nil {
			issues = append(issues, planlint.Issue{Check: "shapes", Severity: planlint.Error, Message: err.Error()})
		}
	}
	return issues
}

// VerifyPlanFile runs VerifyPlanData over a plan file on disk.
func VerifyPlanFile(path string) ([]planlint.Issue, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open plan: %w", err)
	}
	defer f.Close()
	return VerifyPlanData(f), nil
}
