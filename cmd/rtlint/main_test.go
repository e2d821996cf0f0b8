package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"edgeinfer/internal/analysis"
)

// -json renders findings and suppressions machine-readably; error
// findings still fail the gate.
func TestVerdictJSONOutput(t *testing.T) {
	f := analysis.Finding{
		Analyzer: "deadlineflow",
		Severity: analysis.Error,
		Pos:      token.Position{Filename: "internal/netserve/backend.go", Line: 7, Column: 1},
		Message:  "deadline dropped",
	}
	sup := analysis.Suppression{
		Analyzer: "goleak",
		Severity: analysis.Error,
		Pos:      token.Position{Filename: "internal/kernels/pool.go", Line: 3, Column: 2},
		Message:  "goroutine has no stop path",
		Reason:   "process-lifetime pump",
	}
	var out bytes.Buffer
	if code := verdict(&out, []analysis.Finding{f}, []analysis.Suppression{sup}, true); code != 1 {
		t.Fatalf("json verdict with an error finding exits %d, want 1", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "deadlineflow" || rep.Findings[0].Line != 7 {
		t.Fatalf("findings rendered wrong: %+v", rep.Findings)
	}
	if len(rep.Suppressions) != 1 || rep.Suppressions[0].Reason != "process-lifetime pump" {
		t.Fatalf("suppressions rendered wrong: %+v", rep.Suppressions)
	}
}

// An empty run exits clean and renders empty JSON arrays (not null), so
// downstream tooling can always range.
func TestVerdictCleanJSON(t *testing.T) {
	var out bytes.Buffer
	if code := verdict(&out, nil, nil, true); code != 0 {
		t.Fatalf("clean run exits %d, want 0", code)
	}
	s := out.String()
	if !strings.Contains(s, `"findings": []`) || !strings.Contains(s, `"suppressions": []`) {
		t.Fatalf("clean JSON run must render empty arrays:\n%s", s)
	}
}
