package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goleak proves every goroutine launched in the scoped packages has a
// reachable stop path. A goroutine leaks when its body (or anything it
// statically calls) can spin forever: an endless `for {}` whose body has
// no return, no break out of the loop, and no panic, or a `range` over a
// module channel that no code ever closes. Such a goroutine survives
// Drain/Close, pins its arena buffers, and turns graceful shutdown into
// a hang — the exact property the netserve drain path promises to avoid.
//
// Known limitations (documented in DESIGN.md): goroutines launched
// through function values or unexported callbacks the type checker
// cannot resolve are skipped (conservatively assumed stoppable), and
// "never closed" is judged per channel variable/field object across the
// whole module, not per dynamic channel instance.

// DefaultGoroutinePackages are the packages whose go statements are
// audited: the serving, batching, kernel worker-pool and experiment
// surfaces where a leaked goroutine outlives a request or a drain, and
// the indexed fan-out that the experiments and dataset synthesis share.
var DefaultGoroutinePackages = []string{
	"edgeinfer/internal/serve",
	"edgeinfer/internal/netserve",
	"edgeinfer/internal/kernels",
	"edgeinfer/internal/experiments",
	"edgeinfer/internal/fanout",
}

// GoLeak returns the goroutine-stop-path analyzer scoped to the given
// package paths (every module package when empty).
func GoLeak(pkgPaths []string) *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Doc:  "every goroutine in the serving/kernel packages needs a stop path",
		Run: func(m *Module, r *Reporter) {
			runGoLeak(m, pkgPaths, r)
		},
	}
}

func runGoLeak(m *Module, pkgPaths []string, r *Reporter) {
	scoped := map[string]bool{}
	for _, p := range pkgPaths {
		scoped[p] = true
	}
	ix := m.funcs()
	closed := closedChannelObjs(m)
	direct := map[string]witness{}
	callees := map[string][]string{}
	for _, id := range ix.ids {
		d := ix.decls[id]
		if why, pos := spinSite(d.pkg.Info, d.fd.Body, closed); pos.IsValid() {
			direct[id] = witness{why: why}
		}
		callees[id] = calleeEdges(m, d.pkg.Info, d.fd.Body)
	}
	spins := propagate(ix.ids, direct, callees)

	for _, pkg := range m.Packages {
		if len(pkgPaths) > 0 && !scoped[pkg.Path] {
			continue
		}
		for _, file := range pkg.Files {
			p := pkg
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(m, p, g, closed, spins, r)
				return true
			})
		}
	}
}

// checkGoStmt reports a go statement whose goroutine provably spins.
func checkGoStmt(m *Module, pkg *Package, g *ast.GoStmt,
	closed map[types.Object]bool, spins map[string]witness, r *Reporter) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if why, pos := spinSite(pkg.Info, lit.Body, closed); pos.IsValid() {
			r.Report(Error, g.Pos(), "goroutine has no stop path: %s", why)
			return
		}
		for _, c := range calleeEdges(m, pkg.Info, lit.Body) {
			if _, ok := spins[c]; ok {
				r.Report(Error, g.Pos(), "goroutine has no stop path: %s", renderChain(spins, c))
				return
			}
		}
		return
	}
	// A launch through an interface is followed only when exactly one
	// module type implements the method.
	if targets := m.callTargets(pkg.Info, g.Call); len(targets) == 1 {
		if _, ok := spins[targets[0]]; ok {
			r.Report(Error, g.Pos(), "goroutine has no stop path: %s", renderChain(spins, targets[0]))
		}
	}
}

// spinSite finds the first provably endless construct in a function
// extent: an escape-free `for {}` or a range over a never-closed module
// channel. Goroutine launches and stored closures inside are separate
// extents and are skipped.
func spinSite(info *types.Info, body ast.Node, closed map[types.Object]bool) (string, token.Pos) {
	var why string
	var at token.Pos
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if at.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if !funcLitInvokedInline(stack, n) {
				return false
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopEscapes(n.Body) {
				why, at = "endless for loop with no return, break, or panic", n.Pos()
				return false
			}
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) && !loopEscapes(n.Body) {
				obj := chanObj(info, n.X)
				if obj != nil && !closed[obj] {
					why = "ranges over channel '" + obj.Name() + "' that no module code ever closes"
					at = n.Pos()
					return false
				}
			}
		}
		return true
	})
	return why, at
}

// loopEscapes reports whether a loop body can exit its loop: a return,
// an unlabeled break binding to this loop, any labeled break or goto
// (conservatively assumed to escape), or a panic call. Returns inside
// nested function literals do not count.
func loopEscapes(body *ast.BlockStmt) bool {
	escapes := false
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				escapes = true
			case token.BREAK:
				if n.Label != nil {
					escapes = true
					return true
				}
				// An unlabeled break escapes only when no inner construct
				// between this loop's body and the break would capture it.
				captured := false
				for _, a := range stack[:len(stack)-1] {
					switch a.(type) {
					case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt,
						*ast.SwitchStmt, *ast.TypeSwitchStmt:
						captured = true
					}
				}
				if !captured {
					escapes = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// chanObj resolves the variable or struct field a channel expression
// names (nil when it cannot).
func chanObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			return s.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// closedChannelObjs collects every channel variable/field the module
// passes to close(), anywhere.
func closedChannelObjs(m *Module) map[types.Object]bool {
	closed := map[types.Object]bool{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			info := pkg.Info
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "close" {
					return true
				}
				if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
					return true
				}
				if obj := chanObj(info, call.Args[0]); obj != nil {
					closed[obj] = true
				}
				return true
			})
		}
	}
	return closed
}

// calleeEdges collects the unique, sorted module functions an extent
// calls. Goroutine launches and stored closures are separate extents.
func calleeEdges(m *Module, info *types.Info, body ast.Node) []string {
	var edges []string
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if !funcLitInvokedInline(stack, n) {
				return false
			}
		case *ast.CallExpr:
			edges = append(edges, m.callTargets(info, n)...)
		}
		return true
	})
	return distinct(edges)
}
