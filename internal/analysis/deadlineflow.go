package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// deadlineflow catches the dropped-budget bug class: a function that
// was handed a request budget — an *rtctx.Request, a context.Context,
// or a parameter named like deadlineSec/timeout/budget — calling a
// module function that has a budget-aware sibling, discarding the
// budget at the call. The canonical miss: calling Pipeline.Run from a
// path that was handed an rtctx.Request when Pipeline.RunCtx exists.
// The request then runs with no budget at all and the caller's
// deadline accounting silently lies.
//
// A sibling is the same function name with a "Ctx" or "Deadline"
// suffix on the same receiver (Run -> RunCtx, Run -> RunDeadline).
// Calls already targeting a *Ctx or *Deadline function are never
// flagged, and a call is reported at most once even when both sibling
// spellings exist. Goroutine launches are skipped: work
// intentionally detached from the request outlives its budget by
// design and is goleak's jurisdiction.
//
// Known limitation (documented in DESIGN.md): the analyzer checks that
// the budget-aware sibling is chosen, not that the right value is
// passed to it.

// budgetSuffixes are the sibling spellings, most canonical first: the
// reported fix suggests the Ctx sibling when both exist.
var budgetSuffixes = [...]string{"Ctx", "Deadline"}

// DeadlineFlow returns the budget-threading analyzer.
func DeadlineFlow() *Analyzer {
	return &Analyzer{
		Name: "deadlineflow",
		Doc:  "budget-carrying functions must call budget-aware (Ctx/Deadline) siblings",
		Run:  runDeadlineFlow,
	}
}

func runDeadlineFlow(m *Module, r *Reporter) {
	decls := moduleFuncDecls(m)
	ids := make([]string, 0, len(decls))
	for id := range decls {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, id := range ids {
		d := decls[id]
		param := budgetParam(d.pkg.Info, d.fd)
		if param == "" {
			continue
		}
		info := d.pkg.Info
		inspectWithStack(d.fd.Body, func(n ast.Node, stack []ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolvedCallee(info, call)
			if fn == nil || !moduleFunc(m, fn) || budgetAware(fn.Name()) {
				return true
			}
			for _, suffix := range budgetSuffixes {
				sibling := funcID(fn) + suffix
				if _, ok := decls[sibling]; !ok {
					continue
				}
				r.Report(Error, call.Pos(),
					"budget parameter %q is dropped: %s has a budget-aware sibling %s",
					param, shortFuncID(funcID(fn)), shortFuncID(sibling))
				break // one finding per call, even when both siblings exist
			}
			return true
		})
	}
}

// budgetAware reports whether a function name already spells a
// budget-taking variant.
func budgetAware(name string) bool {
	for _, suffix := range budgetSuffixes {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// budgetParam returns the name of the first parameter that carries a
// request budget — an rtctx.Request (pointer or value), a
// context.Context, or a name containing deadline, timeout or budget
// ("" when the function carries none).
func budgetParam(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Type.Params == nil {
		return ""
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			lower := strings.ToLower(name.Name)
			if strings.Contains(lower, "deadline") ||
				strings.Contains(lower, "timeout") ||
				strings.Contains(lower, "budget") {
				return name.Name
			}
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
