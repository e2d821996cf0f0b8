package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DefaultRestricted lists the packages whose output must be bit-for-bit
// reproducible: the engine builder, the IR, the kernel library, the GPU
// timing model and the latency predictor the builder prunes with —
// tables in the paper are regenerated from these, so any nondeterminism
// shows up as diffs between runs — and every other package that
// serializes an artefact (the framing layer, the framework exporters),
// where it shows up as two saves of one value differing byte for byte.
var DefaultRestricted = []string{
	"edgeinfer/internal/core",
	"edgeinfer/internal/graph",
	"edgeinfer/internal/kernels",
	"edgeinfer/internal/gpusim",
	"edgeinfer/internal/framed",
	"edgeinfer/internal/frameworks",
	"edgeinfer/internal/latpred",
}

// Determinism returns the analyzer that forbids nondeterminism sources
// in the restricted packages (each entry matches itself and its
// subpackages): wall-clock reads (time.Now/Since/Until), the math/rand
// generators (fixrand is the sanctioned seeded source), and map
// iterations whose visit order leaks into an ordered result.
func Determinism(restricted []string) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock, math/rand and map-order leaks in reproducibility-critical packages",
		Run: func(m *Module, r *Reporter) {
			for _, pkg := range m.Packages {
				if !pathRestricted(pkg.Path, restricted) {
					continue
				}
				for _, file := range pkg.Files {
					checkDeterminismFile(pkg, file, r)
				}
			}
		},
	}
}

func pathRestricted(path string, restricted []string) bool {
	for _, p := range restricted {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func checkDeterminismFile(pkg *Package, file *ast.File, r *Reporter) {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if p == "math/rand" || p == "math/rand/v2" {
			r.Report(Error, imp.Pos(), "import of %s in restricted package %s; use internal/fixrand for seeded, reproducible randomness", p, pkg.Path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
				switch fn.Name() {
				case "Now", "Since", "Until":
					r.Report(Error, n.Pos(), "time.%s in restricted package %s makes results depend on wall-clock", fn.Name(), pkg.Path)
				}
			}
		case *ast.RangeStmt:
			checkMapRangeLeaks(pkg, n, r)
		}
		return true
	})
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil for
// builtins, conversions and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// checkMapRangeLeaks flags statements inside a range-over-map whose
// effect depends on the (randomized) iteration order: appends to outer
// slices that are never sorted afterwards, string concatenation into
// outer variables, and plain assignment of the loop variables to outer
// variables. Float accumulation is floatorder's domain and skipped here.
func checkMapRangeLeaks(pkg *Package, rng *ast.RangeStmt, r *Reporter) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	loopVars := rangeLoopVars(pkg.Info, rng)
	fn := enclosingFuncBody(pkg, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Uses[id]
			if obj == nil || !declaredOutside(obj, rng) {
				continue
			}
			if isFloat(obj.Type()) {
				continue // floatorder reports accumulation-order hazards
			}
			switch {
			case as.Tok == token.ASSIGN && i < len(as.Rhs) && isAppendTo(pkg.Info, as.Rhs[min(i, len(as.Rhs)-1)], obj):
				if !sortedLater(pkg, fn, rng, obj) {
					r.Report(Error, as.Pos(), "append to %s inside range over map leaks iteration order; sort the result or the keys first", id.Name)
				}
			case as.Tok == token.ADD_ASSIGN && isString(obj.Type()):
				r.Report(Error, as.Pos(), "string concatenation into %s inside range over map depends on iteration order", id.Name)
			case as.Tok == token.ASSIGN && i < len(as.Rhs) && isLoopVarExpr(pkg.Info, as.Rhs[min(i, len(as.Rhs)-1)], loopVars):
				r.Report(Error, as.Pos(), "assignment of map loop variable to %s keeps an arbitrary iteration's value", id.Name)
			}
		}
		return true
	})
}

// rangeLoopVars returns the objects bound by the range statement's
// key/value variables.
func rangeLoopVars(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				vars[obj] = true // range with = instead of :=
			}
		}
	}
	return vars
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement's span (an "outer" variable).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isAppendTo reports whether e is append(obj, ...).
func isAppendTo(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[arg] == obj
}

// isLoopVarExpr reports whether e is exactly one of the loop variables.
func isLoopVarExpr(info *types.Info, e ast.Expr, loopVars map[types.Object]bool) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && loopVars[info.Uses[id]]
}

// enclosingFuncBody finds the body of the function declaration that
// contains the node, for the sorted-afterwards check.
func enclosingFuncBody(pkg *Package, n ast.Node) *ast.BlockStmt {
	for _, file := range pkg.Files {
		if n.Pos() < file.Pos() || n.Pos() >= file.End() {
			continue
		}
		var body *ast.BlockStmt
		ast.Inspect(file, func(c ast.Node) bool {
			switch fd := c.(type) {
			case *ast.FuncDecl:
				if fd.Body != nil && n.Pos() >= fd.Body.Pos() && n.Pos() < fd.Body.End() {
					body = fd.Body
				}
			case *ast.FuncLit:
				if n.Pos() >= fd.Body.Pos() && n.Pos() < fd.Body.End() {
					body = fd.Body
				}
			}
			return true
		})
		return body
	}
	return nil
}

// sortedLater reports whether, after the range statement, the enclosing
// function passes obj to a sort-package function — the canonical
// collect-then-sort idiom that restores determinism.
func sortedLater(pkg *Package, fn *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		f := calleeFunc(pkg.Info, call)
		if f == nil || f.Pkg() == nil || (f.Pkg().Path() != "sort" && f.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
