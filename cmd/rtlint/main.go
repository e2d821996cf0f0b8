// Command rtlint is the repository's static-analysis gate. With no
// flags it loads the enclosing module and runs the source analyzers
// (determinism, panicpath, errcheck, floatorder, lockorder, goleak,
// hotalloc, deadlineflow); error-severity findings fail the build.
// Plan IR is checked statically too:
//
//	rtlint                  analyze the module's source
//	rtlint -json            machine-readable findings on stdout
//	rtlint -plan file.plan  verify a serialized engine plan on disk
//	rtlint -plancheck       build + serialize + verify every classifier plan
//
// A finding is silenced only by a directive on its line or the line
// above, `//rt:allow <analyzer>[, <analyzer>...] -- <justification>`;
// every suppression is printed with its justification so directives
// stay auditable.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"

	"edgeinfer/internal/analysis"
	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
	"edgeinfer/internal/planlint"
)

func main() {
	planFile := flag.String("plan", "", "verify the serialized engine plan at this path instead of analyzing source")
	planCheck := flag.Bool("plancheck", false, "build, serialize and statically verify every classifier model plan")
	jsonOut := flag.Bool("json", false, "emit findings and suppressions as JSON")
	flag.Parse()

	var exit int
	switch {
	case *planFile != "":
		exit = runPlanFile(*planFile)
	case *planCheck:
		exit = runPlanCheck()
	default:
		exit = runSource(os.Stdout, *jsonOut)
	}
	os.Exit(exit)
}

// sourceAnalyzers is the full analyzer suite the gate runs.
func sourceAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		analysis.Determinism(analysis.DefaultRestricted),
		analysis.PanicPath(analysis.DefaultPanicRoots),
		analysis.ErrCheck(),
		analysis.FloatOrder(),
		analysis.LockOrder(analysis.DefaultBlockingFuncs),
		analysis.GoLeak(analysis.DefaultGoroutinePackages),
		analysis.HotAlloc(),
		analysis.DeadlineFlow(),
	}
}

// runSource analyzes the module containing the working directory.
// Positional package patterns ("./...") are accepted for familiarity but
// the whole module is always analyzed.
func runSource(w io.Writer, jsonOut bool) int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	m, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	findings, suppressed := analysis.RunAll(m, sourceAnalyzers())
	return verdict(w, findings, suppressed, jsonOut)
}

// jsonReport is the machine-readable output shape of `rtlint -json`.
type jsonReport struct {
	Findings     []jsonFinding     `json:"findings"`
	Suppressions []jsonSuppression `json:"suppressions"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonSuppression struct {
	jsonFinding
	Reason string `json:"reason"`
}

// verdict renders the findings (text or JSON) and decides the exit code:
// 1 when any finding is error severity.
func verdict(w io.Writer, findings []analysis.Finding, suppressed []analysis.Suppression, jsonOut bool) int {
	if jsonOut {
		rep := jsonReport{Findings: []jsonFinding{}, Suppressions: []jsonSuppression{}}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, toJSONFinding(f.Analyzer, f.Severity, f.Pos, f.Message))
		}
		for _, s := range suppressed {
			rep.Suppressions = append(rep.Suppressions, jsonSuppression{
				jsonFinding: toJSONFinding(s.Analyzer, s.Severity, s.Pos, s.Message),
				Reason:      s.Reason,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "rtlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
		for _, s := range suppressed {
			fmt.Fprintln(w, s)
		}
	}
	if analysis.HasErrors(findings) {
		fmt.Fprintf(os.Stderr, "rtlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func toJSONFinding(analyzer string, sev analysis.Severity, pos token.Position, msg string) jsonFinding {
	return jsonFinding{
		Analyzer: analyzer,
		Severity: sev.String(),
		File:     pos.Filename,
		Line:     pos.Line,
		Column:   pos.Column,
		Message:  msg,
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// runPlanFile statically verifies one plan file.
func runPlanFile(path string) int {
	issues, err := core.VerifyPlanFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlint:", err)
		return 2
	}
	return reportIssues(path, issues)
}

// runPlanCheck builds every classifier's numeric engine, serializes it
// and verifies the resulting plan bytes — the same plans the paper's
// result tables are generated from.
func runPlanCheck() int {
	names := []string{"alexnet", "googlenet", "inceptionv4", "resnet18", "vgg16"}
	sort.Strings(names)
	exit := 0
	for _, name := range names {
		g, err := models.BuildProxy(name, models.DefaultProxyOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtlint: %s: %v\n", name, err)
			return 2
		}
		e, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtlint: %s: build: %v\n", name, err)
			return 2
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "rtlint: %s: save: %v\n", name, err)
			return 2
		}
		if code := reportIssues(name, core.VerifyPlanData(&buf)); code != 0 {
			exit = code
		}
	}
	if exit == 0 {
		fmt.Printf("rtlint: %d plan(s) verified clean\n", len(names))
	}
	return exit
}

func reportIssues(subject string, issues []planlint.Issue) int {
	for _, i := range issues {
		fmt.Printf("%s: %s\n", subject, i)
	}
	if planlint.HasErrors(issues) {
		return 1
	}
	return 0
}
