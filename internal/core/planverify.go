package core

import (
	"fmt"
	"io"
	"os"
	"strings"

	"edgeinfer/internal/planlint"
)

// Plan-IR verification. The builder refuses to serialize a plan that
// fails these checks (see Engine.Save), and admit runs them on every plan
// Load deserializes: illegal fusions, missing calibration ranges, dead
// layers and launch/graph mismatches are rejected on the way in as well
// as on the way out. cmd/rtlint applies the same gate to plan files on
// disk through VerifyPlanData.

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

// VerifyPlanData verifies a serialized plan stream through admit — the
// gate Load applies — and returns every issue found: Load errs exactly
// when one of them is error-severity.
func VerifyPlanData(r io.Reader) []planlint.Issue {
	_, issues := admit(r)
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
