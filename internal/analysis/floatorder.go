package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// kernelReductionPaths lists the packages whose float reductions must
// flow through the Variant rounding discipline: partial sums rounded by
// roundTo at tile boundaries and folded by combine. A raw accumulation
// loop there silently changes the precision contract the paper's
// consistency tables (V/VI) are built on.
var kernelReductionPaths = []string{"edgeinfer/internal/kernels"}

// FloatOrder returns the analyzer that flags floating-point accumulation
// under range-over-map, in every package. Float addition is not
// associative, so even a commutative-looking `sum += v` produces
// run-to-run different low bits when the iteration order changes —
// exactly the class of drift that breaks golden-number tables.
//
// In the kernel packages (kernelReductionPaths) it additionally flags
// accumulation loops whose enclosing function never calls roundTo or
// combine: every reduction there must round partials through the
// Variant discipline, or the engine's accumulation order drifts from
// the modeled one.
func FloatOrder() *Analyzer {
	return &Analyzer{
		Name: "floatorder",
		Doc:  "flag float32/float64 accumulation inside range-over-map (order-dependent rounding) and kernel reductions bypassing roundTo/combine",
		Run: func(m *Module, r *Reporter) {
			for _, pkg := range m.Packages {
				kernels := pathRestricted(pkg.Path, kernelReductionPaths)
				for _, file := range pkg.Files {
					ast.Inspect(file, func(n ast.Node) bool {
						rng, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						checkFloatAccumulation(pkg, rng, r)
						return true
					})
					if kernels {
						checkKernelReductions(pkg, file, r)
					}
				}
			}
		},
	}
}

func checkFloatAccumulation(pkg *Package, rng *ast.RangeStmt, r *Reporter) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Uses[id]
			if obj == nil || !declaredOutside(obj, rng) || !isFloat(obj.Type()) {
				continue
			}
			r.Report(Error, as.Pos(),
				"float accumulation into %s inside range over map is order-dependent; iterate sorted keys instead", id.Name)
		}
		return true
	})
}

// checkKernelReductions flags float accumulation loops in a kernel
// package whose enclosing function never touches the Variant rounding
// discipline (a roundTo or combine call). Map-range accumulation is the
// base rule's domain and skipped here.
func checkKernelReductions(pkg *Package, file *ast.File, r *Reporter) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Name.Name == "roundTo" || fd.Name.Name == "combine" {
			continue // these implement the discipline
		}
		if callsRounding(fd.Body) {
			continue
		}
		reportUnroundedLoops(pkg, fd, r)
	}
}

// callsRounding reports whether the body contains a call to a function
// or method named roundTo or combine (name-based: the discipline is a
// package-local convention, not an exported interface).
func callsRounding(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "roundTo" || fun.Name == "combine" {
				found = true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "roundTo" || fun.Sel.Name == "combine" {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopSpan is one for/range statement of a function, with map ranges
// marked so they can be left to the base rule.
type loopSpan struct {
	pos, end token.Pos
	mapRange bool
}

// reportUnroundedLoops reports every compound float accumulation whose
// innermost enclosing loop is a non-map for/range statement.
func reportUnroundedLoops(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	var loops []loopSpan
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, loopSpan{pos: n.Pos(), end: n.End()})
		case *ast.RangeStmt:
			isMap := false
			if tv, ok := pkg.Info.Types[n.X]; ok {
				_, isMap = tv.Type.Underlying().(*types.Map)
			}
			loops = append(loops, loopSpan{pos: n.Pos(), end: n.End(), mapRange: isMap})
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		inner := innermostLoop(loops, as.Pos())
		if inner == nil || inner.mapRange {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Uses[id]
			if obj == nil || !isFloat(obj.Type()) {
				continue
			}
			if obj.Pos() >= inner.pos && obj.Pos() < inner.end {
				continue // loop-local accumulator feeding nothing outside
			}
			r.Report(Error, as.Pos(),
				"float accumulation into %s in %s bypasses the kernel rounding discipline; fold partial sums through Numerics.roundTo/combine", id.Name, fd.Name.Name)
		}
		return true
	})
}

// innermostLoop returns the smallest loop span containing pos, or nil.
func innermostLoop(loops []loopSpan, pos token.Pos) *loopSpan {
	var best *loopSpan
	for i := range loops {
		l := &loops[i]
		if pos < l.pos || pos >= l.end {
			continue
		}
		if best == nil || (l.pos >= best.pos && l.end <= best.end) {
			best = l // loops containing the same pos nest; the later, tighter span wins
		}
	}
	return best
}
