package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadlineflow catches the dropped-budget bug class: a function that
// was handed a request context — an *rtctx.Request or a
// context.Context — calling a module function that has a context-aware
// sibling, discarding the budget at the call. The canonical miss:
// calling Pipeline.Run from a path that was handed an rtctx.Request
// when Pipeline.RunCtx exists. The request then runs with no budget at
// all and the caller's deadline accounting silently lies.
//
// A sibling is the same function name with a "Ctx" suffix on the same
// receiver (Run -> RunCtx). Calls already targeting a *Ctx function are
// never flagged. Goroutine launches are skipped: work intentionally
// detached from the request outlives its budget by design and is
// goleak's jurisdiction.
//
// Known limitation (documented in DESIGN.md): the analyzer checks that
// the context-aware sibling is chosen, not that the right value is
// passed to it.

// DeadlineFlow returns the budget-threading analyzer.
func DeadlineFlow() *Analyzer {
	return &Analyzer{
		Name: "deadlineflow",
		Doc:  "context-carrying functions must call context-aware (Ctx) siblings",
		Run:  runDeadlineFlow,
	}
}

func runDeadlineFlow(m *Module, r *Reporter) {
	ix := m.funcs()
	for _, id := range ix.ids {
		d := ix.decls[id]
		info := d.pkg.Info
		param := ctxParam(info, d.fd)
		if param == "" {
			continue
		}
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if !moduleFunc(m, fn) || strings.HasSuffix(fn.Name(), "Ctx") {
				return true
			}
			sibling := funcID(fn) + "Ctx"
			if ix.decls[sibling] != nil {
				r.Report(Error, call.Pos(),
					"request context %q is dropped: %s has a context-aware sibling %s",
					param, shortFuncID(funcID(fn)), shortFuncID(sibling))
			}
			return true
		})
	}
}

// ctxParam returns the name of the first parameter that carries a
// request context — an rtctx.Request (pointer or value) or a
// context.Context ("" when the function carries none).
func ctxParam(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Type.Params == nil {
		return ""
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil &&
				(isContextType(obj.Type()) || isRequestCtxType(obj.Type())) {
				return name.Name
			}
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isRequestCtxType reports whether t is rtctx.Request or
// *rtctx.Request — the module's first-class request context.
func isRequestCtxType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(n.Obj().Pkg().Path(), "/rtctx") && n.Obj().Name() == "Request"
}
