package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Module is a fully parsed and type-checked Go module: the unit every
// analyzer runs over.
type Module struct {
	// Path is the module path from go.mod (e.g. "edgeinfer").
	Path string
	// Dir is the module root directory.
	Dir string
	// Fset maps every parsed position.
	Fset *token.FileSet
	// Packages in dependency (topological) order.
	Packages []*Package

	// allow maps file -> line -> analyzer name -> justification for
	// findings suppressed by an `//rt:allow` directive on that line.
	allow map[string]map[int]map[string]string
	// index is the function index funcs builds on first use.
	index *funcIndex
}

// Package is one type-checked package of the module. Test files
// (_test.go) are excluded: the analyzers police production code.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory.
	Dir string
	// Files are the parsed source files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the resolved identifier/type maps for Files.
	Info *types.Info
}

// LoadModule parses and type-checks every non-test package under root
// (which must contain go.mod), using only the standard library: module
// packages are resolved internally and the standard library is
// type-checked from GOROOT source. testdata, vendor and hidden
// directories are skipped, matching the go tool.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:  modPath,
		Dir:   abs,
		Fset:  token.NewFileSet(),
		allow: map[string]map[int]map[string]string{},
	}
	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	// Parse every package first so import edges are known before
	// type-checking begins.
	parsed := map[string]*Package{} // import path -> package
	imports := map[string][]string{}
	for _, dir := range dirs {
		pkg, deps, err := m.parsePackage(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable files
		}
		parsed[pkg.Path] = pkg
		imports[pkg.Path] = deps
	}
	order, err := topoOrder(parsed, imports)
	if err != nil {
		return nil, err
	}
	// Type-check in dependency order. Standard-library imports go through
	// the source importer; module-internal imports resolve to packages
	// checked earlier in the order.
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		std:    importer.ForCompiler(m.Fset, "source", nil),
		module: checked,
	}
	for _, path := range order {
		pkg := parsed[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, m.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		checked[path] = tpkg
		m.Packages = append(m.Packages, pkg)
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs walks root collecting directories that hold .go files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// parsePackage parses the non-test files of one directory, records allow
// directives, and returns the package plus its module-internal imports.
func (m *Module) parsePackage(dir string) (*Package, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return nil, nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Dir: dir}
	var deps []string
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: parse %s: %w", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, file)
		m.recordDirectives(file)
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == m.Path || strings.HasPrefix(p, m.Path+"/") {
				deps = append(deps, p)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil, nil
	}
	return pkg, deps, nil
}

// topoOrder sorts packages so every module-internal dependency precedes
// its importer.
func topoOrder(pkgs map[string]*Package, imports map[string][]string) ([]string, error) {
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		deps := append([]string(nil), imports[path]...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := pkgs[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports to already-checked
// packages and everything else through the GOROOT source importer.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// recordDirectives scans a file's comments for suppression directives:
//
//	//rt:allow <analyzer>[, <analyzer>...] -- <justification>
//
// A directive suppresses matching findings on its own line and on the
// line immediately following (so it can trail the flagged statement or
// sit on its own line above it). The justification is kept and surfaced
// with every suppression the directive fires on.
func (m *Module) recordDirectives(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			text, ok := strings.CutPrefix(body, "rt:allow")
			if !ok {
				continue
			}
			names, reason := parseAllow(text)
			if len(names) == 0 {
				continue
			}
			pos := m.Fset.Position(c.Pos())
			byLine := m.allow[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]string{}
				m.allow[pos.Filename] = byLine
			}
			set := byLine[pos.Line]
			if set == nil {
				set = map[string]string{}
				byLine[pos.Line] = set
			}
			for _, n := range names {
				set[n] = reason
			}
		}
	}
}

// parseAllow splits a directive body into analyzer names and the
// justification: a name list, `--`, then free-form text. A body without
// `--` names no analyzer.
func parseAllow(text string) (names []string, reason string) {
	before, after, ok := strings.Cut(text, "--")
	if !ok {
		return nil, ""
	}
	for _, f := range strings.FieldsFunc(before, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if !isAnalyzerName(f) {
			break // start of untagged justification text
		}
		names = append(names, f)
	}
	return names, strings.TrimSpace(after)
}

// isAnalyzerName reports whether s looks like an analyzer identifier
// (leading letter, then letters/digits/dashes). The `--` justification
// separator and prose words with punctuation fail this test.
func isAnalyzerName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case i > 0 && (r == '-' || r == '_' || (r >= '0' && r <= '9')):
		default:
			return false
		}
	}
	return s != ""
}

// Allowed reports whether findings of the named analyzer are suppressed
// at file:line, and the directive's justification when they are.
func (m *Module) Allowed(analyzer, file string, line int) (bool, string) {
	byLine := m.allow[file]
	if byLine == nil {
		return false, ""
	}
	for _, l := range [2]int{line, line - 1} {
		if set := byLine[l]; set != nil {
			if reason, ok := set[analyzer]; ok {
				return true, reason
			}
		}
	}
	return false, ""
}
