package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fixtureAnalyzers is the production analyzer set, run against the
// fixture module under testdata/module (whose module path is also
// "edgeinfer", so the default restricted paths and panic roots resolve).
func fixtureAnalyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(DefaultRestricted),
		PanicPath(DefaultPanicRoots),
		ErrCheck(),
		FloatOrder(),
		LockOrder(DefaultBlockingFuncs),
		GoLeak(DefaultGoroutinePackages),
		HotAlloc(),
		DeadlineFlow(),
	}
}

func loadFixture(t *testing.T) *Module {
	t.Helper()
	m, err := LoadModule(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixtureMarkers scans the fixture sources for `want:<analyzer>` line
// markers and returns the expected finding set as "file:line:analyzer".
func fixtureMarkers(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "want:")
			if i < 0 || !strings.Contains(text[:i], "//") {
				continue
			}
			for _, name := range strings.Fields(text[i+len("want:"):]) {
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), line, name)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtureFindingsMatchMarkers is the golden test: the analyzers
// must report exactly the marked (file, line, analyzer) set — nothing
// missing, nothing extra. The unmarked negative cases (sorted append,
// recover barrier, handled errors, allow directives) are proven by the
// "nothing extra" direction.
func TestFixtureFindingsMatchMarkers(t *testing.T) {
	m := loadFixture(t)
	findings, _ := RunAll(m, fixtureAnalyzers())
	got := map[string]int{}
	for _, f := range findings {
		rel, err := filepath.Rel(m.Dir, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), f.Pos.Line, f.Analyzer)]++
	}
	want := fixtureMarkers(t, m.Dir)
	if len(want) == 0 {
		t.Fatal("no want: markers found in fixtures")
	}
	for k := range want {
		if got[k] == 0 {
			t.Errorf("missing finding %s", k)
		}
	}
	for k, n := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s (x%d)", k, n)
		}
	}
}

// TestSeededEntryPointsResolve runs over the real module: panicpath
// silently skips a root it cannot resolve and lockorder a blocking name
// nothing declares, so deleting or renaming an entry point would shrink
// rtlint's coverage without a finding. Every seeded name must be a
// declared function.
func TestSeededEntryPointsResolve(t *testing.T) {
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	decls := m.funcs().decls
	for list, ids := range map[string][]string{
		"DefaultPanicRoots":    DefaultPanicRoots,
		"DefaultBlockingFuncs": DefaultBlockingFuncs,
	} {
		for _, id := range ids {
			if decls[id] == nil {
				t.Errorf("%s names %s, which the module does not declare", list, id)
			}
		}
	}
}

// TestEveryPackageIsImported runs over the real module: a package that
// no non-test file of another package imports is code no binary
// reaches, kept alive only by its own tests. Commands, examples and
// bench/ count as importers; the module root is documentation.
func TestEveryPackageIsImported(t *testing.T) {
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]bool{}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && path != p.Path {
					imported[path] = true
				}
			}
		}
	}
	for _, p := range m.Packages {
		if p.Path == m.Path || p.Files[0].Name.Name == "main" {
			continue
		}
		if !imported[p.Path] {
			t.Errorf("%s is imported by no non-test file of another package", p.Path)
		}
	}
}

// TestDeadlineFlowReportsOncePerCall: the analyzer must emit exactly one
// finding per call site that drops a request context, suggesting the
// Ctx sibling.
func TestDeadlineFlowReportsOncePerCall(t *testing.T) {
	m := loadFixture(t)
	findings, _ := RunAll(m, []*Analyzer{DeadlineFlow()})
	perLine := map[string]int{}
	for _, f := range findings {
		perLine[fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)]++
		if !strings.Contains(f.Message, "RunCtx") {
			t.Errorf("finding %s does not suggest the Ctx sibling", f)
		}
	}
	if len(perLine) == 0 {
		t.Fatal("no deadlineflow findings on the fixture")
	}
	for line, n := range perLine {
		if n != 1 {
			t.Errorf("call at %s reported %d times, want exactly once", line, n)
		}
	}
}

// TestSeededViolationsFailDriver proves cmd/rtlint's non-zero exit
// contract: the fixture's seeded violations are error severity, so
// HasErrors — the driver's exit-code predicate — is true.
func TestSeededViolationsFailDriver(t *testing.T) {
	m := loadFixture(t)
	findings, _ := RunAll(m, fixtureAnalyzers())
	if !HasErrors(findings) {
		t.Fatal("seeded fixture violations must produce error-severity findings")
	}
	var sawDeterminism bool
	for _, f := range findings {
		if f.Analyzer == "determinism" && strings.Contains(f.Message, "time.Since") {
			sawDeterminism = true
		}
	}
	if !sawDeterminism {
		t.Error("seeded time.Since violation not reported")
	}
}

// TestAllowDirectiveSuppresses is the negative fixture: every line
// carrying an rt:allow directive (and the line after an own-line
// directive) yields no finding, while the same constructs without a
// directive do (checked by the golden test above).
func TestAllowDirectiveSuppresses(t *testing.T) {
	m := loadFixture(t)
	findings, _ := RunAll(m, fixtureAnalyzers())
	directiveLines := map[string]bool{}
	err := filepath.WalkDir(m.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "rt:allow") {
				directiveLines[fmt.Sprintf("%s:%d", path, i+1)] = true
				directiveLines[fmt.Sprintf("%s:%d", path, i+2)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(directiveLines) == 0 {
		t.Fatal("no rt:allow directives in fixtures")
	}
	for _, f := range findings {
		if directiveLines[fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)] {
			t.Errorf("finding on a directive-suppressed line: %s", f)
		}
	}
}

// TestSuppressionsCarryReasons: RunAll's suppression records surface
// each directive's analyzer and justification, for both the
// `//rt:allow a[, b] -- why` and the `//rt:allow a why` spelling.
func TestSuppressionsCarryReasons(t *testing.T) {
	m := loadFixture(t)
	_, suppressed := RunAll(m, fixtureAnalyzers())
	if len(suppressed) == 0 {
		t.Fatal("fixtures carry allow directives; no suppressions recorded")
	}
	byAnalyzer := map[string]bool{}
	for _, s := range suppressed {
		byAnalyzer[s.Analyzer] = true
		if s.Reason == "" {
			t.Errorf("suppression %s carries no reason", s)
		}
		if r := s.String(); !strings.Contains(r, "allowed: ") || !strings.Contains(r, s.Reason) {
			t.Errorf("suppression rendering %q does not surface the reason", r)
		}
	}
	for _, a := range []string{"determinism", "lockorder", "goleak", "hotalloc", "deadlineflow"} {
		if !byAnalyzer[a] {
			t.Errorf("no suppression recorded for the fixture's %s directive", a)
		}
	}
}

// TestParseAllowGrammars pins the one spelling of the directive body: a
// name list, `--`, the reason. A body without `--` names no analyzer.
func TestParseAllowGrammars(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
	}{
		{"lockorder, goleak -- drain owns both", []string{"lockorder", "goleak"}, "drain owns both"},
		{"hotalloc warm-up only", nil, ""},
		{"deadlineflow -- explicit separator still works", []string{"deadlineflow"}, "explicit separator still works"},
		{"Prose, not a directive body", nil, ""},
	}
	for _, c := range cases {
		names, reason := parseAllow(c.text)
		if strings.Join(names, ",") != strings.Join(c.names, ",") || reason != c.reason {
			t.Errorf("parseAllow(%q) = %v, %q; want %v, %q",
				c.text, names, reason, c.names, c.reason)
		}
	}
}

// TestFindingOrdering checks RunAll's stable sort contract.
func TestFindingOrdering(t *testing.T) {
	m := loadFixture(t)
	findings, _ := RunAll(m, fixtureAnalyzers())
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("findings out of order: %s before %s", a, b)
		}
	}
}
