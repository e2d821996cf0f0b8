// Package analysis is a small, dependency-free static-analysis framework
// over go/ast + go/types, purpose-built for this repository's invariants:
// deterministic builds, panic-free serving paths, and checked errors.
// It loads a whole module (LoadModule), runs a set of Analyzers over it
// and reports Findings with exact positions. Findings can be suppressed
// at a specific line with a
//
//	//rt:allow <analyzer>[, <analyzer>...] -- <justification>
//
// directive placed on the flagged line or on the line directly above it.
// Suppressions are recorded (with their justifications) and surfaced by
// the driver, never silently swallowed. Functions annotated
// `//rt:hotpath` in their doc comment opt into the hotalloc analyzer's
// static allocation-freedom check.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Severity classifies a finding. Error-severity findings fail the build
// (cmd/rtlint exits non-zero); warnings are advisory.
type Severity uint8

const (
	Warn Severity = iota
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Severity Severity
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Severity, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a loaded module.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// Doc is a one-line description shown by the driver.
	Doc string
	// Run inspects the module and reports findings through r.
	Run func(m *Module, r *Reporter)
}

// Suppression is a finding an allow directive silenced, kept so the
// driver can surface every active suppression with its justification —
// a directive that fires silently is a directive nobody re-audits.
type Suppression struct {
	Analyzer string
	Severity Severity
	Pos      token.Position
	Message  string
	Reason   string
}

// String renders the suppression with its justification.
func (s Suppression) String() string {
	reason := s.Reason
	if reason == "" {
		reason = "no justification given"
	}
	return fmt.Sprintf("%s:%d:%d: allowed: [%s] %s (%s)",
		s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Analyzer, s.Message, reason)
}

// Reporter collects findings for one analyzer, applying allow-directive
// suppression at report time.
type Reporter struct {
	module     *Module
	analyzer   string
	findings   *[]Finding
	suppressed *[]Suppression
}

// Report records a finding at pos unless an allow directive suppresses
// it there (in which case the suppression itself is recorded).
func (r *Reporter) Report(sev Severity, pos token.Pos, format string, args ...any) {
	p := r.module.Fset.Position(pos)
	if ok, reason := r.module.Allowed(r.analyzer, p.Filename, p.Line); ok {
		*r.suppressed = append(*r.suppressed, Suppression{
			Analyzer: r.analyzer,
			Severity: sev,
			Pos:      p,
			Message:  fmt.Sprintf(format, args...),
			Reason:   reason,
		})
		return
	}
	*r.findings = append(*r.findings, Finding{
		Analyzer: r.analyzer,
		Severity: sev,
		Pos:      p,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAll executes every analyzer over the module and returns the
// findings plus the suppressions allow directives fired on, both sorted
// by position, then analyzer name.
func RunAll(m *Module, analyzers []*Analyzer) ([]Finding, []Suppression) {
	var findings []Finding
	var suppressed []Suppression
	for _, a := range analyzers {
		r := &Reporter{module: m, analyzer: a.Name, findings: &findings, suppressed: &suppressed}
		a.Run(m, r)
	}
	sort.Slice(findings, func(i, j int) bool {
		return posLess(findings[i].Pos, findings[j].Pos, findings[i].Analyzer, findings[j].Analyzer)
	})
	sort.Slice(suppressed, func(i, j int) bool {
		return posLess(suppressed[i].Pos, suppressed[j].Pos, suppressed[i].Analyzer, suppressed[j].Analyzer)
	})
	return findings, suppressed
}

// posLess is the canonical finding order: file, line, column, analyzer.
func posLess(a, b token.Position, an, bn string) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	return an < bn
}

// HasErrors reports whether any finding is error severity.
func HasErrors(findings []Finding) bool {
	for _, f := range findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}
