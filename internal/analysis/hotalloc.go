package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotalloc statically verifies that functions annotated `//rt:hotpath`
// (and everything they statically call) perform no per-call heap
// allocation in steady state. It is the compile-time twin of the
// runtime 0-allocs/op pin (TestExecIntoSteadyStateZeroAllocs): the
// paper's enqueue-cost and tail-latency numbers depend on the engine
// never touching the allocator between warm-up and teardown.
//
// Flagged on a hot path: make/new, append growth, heap composite
// literals (&T{...}, slice/map literals), string concatenation,
// allocating stdlib calls (fmt/strconv/strings/errors/sort/bytes),
// goroutine launches, and escaping closures.
//
// Allowed without a directive, because each is how warm steady state is
// built rather than per-call garbage:
//   - result flow: an allocation inside a return statement or assigned
//     to a result variable is the function's contract with its caller;
//   - warm-up and lazy init: an allocation guarded by a cap/len check
//     or a nil check runs only until buffers reach steady size;
//   - error/panic tails: blocks ending in a non-nil error return or a
//     panic are cold by definition;
//   - recover barriers: a function literal containing recover() exists
//     to handle the already-failed case.
//
// Known limitations (documented in DESIGN.md): interface-method calls
// are not traversed (annotate the implementations directly, as done for
// the kernel chunk workers), and result-flow allocations are trusted
// rather than traced to the caller — the dynamic allocs/op test remains
// the end-to-end backstop.

// HotAlloc returns the hot-path allocation-freedom analyzer.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "//rt:hotpath functions must be statically allocation-free",
		Run:  runHotAlloc,
	}
}

func runHotAlloc(m *Module, r *Reporter) {
	ix := m.funcs()
	var roots []string
	for _, id := range ix.ids {
		if hotPathAnnotated(ix.decls[id].fd) {
			roots = append(roots, id)
		}
	}
	walkFrom(roots, func(id string, parent map[string]string) []string {
		d := ix.decls[id]
		if d == nil {
			return nil
		}
		allocs, edges := scanHot(m, d)
		for _, a := range allocs {
			r.Report(Error, a.pos, "allocation on hot path %s: %s", chain(parent, id), a.desc)
		}
		return edges
	})
}

// hotPathAnnotated reports whether a declaration's doc comment carries
// the //rt:hotpath directive.
func hotPathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		t := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if t == "rt:hotpath" || strings.HasPrefix(t, "rt:hotpath ") {
			return true
		}
	}
	return false
}

type hotSite struct {
	pos  token.Pos
	desc string
}

// scanHot walks one hot function body, returning the allocation sites
// that violate the contract and the module callees the hot region
// reaches (cold tails excluded).
func scanHot(m *Module, d *declInfo) (allocs []hotSite, edges []string) {
	info := d.pkg.Info
	cold := coldBlocks(info, d.fd)
	results := resultObjs(info, d.fd)
	inspectWithStack(d.fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if cold[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			allocs = append(allocs, hotSite{n.Pos(), "goroutine launch"})
			return false
		case *ast.FuncLit:
			if litRecovers(info, n) {
				return false // recover barrier: cold by construction
			}
			if !funcLitInvokedInline(stack, n) && !allowedByFlow(info, n, stack, results) {
				allocs = append(allocs, hotSite{n.Pos(), "escaping closure"})
				return false
			}
		case *ast.CompositeLit:
			if desc := compositeAllocDesc(info, n, stack); desc != "" &&
				!allowedByFlow(info, n, stack, results) && !warmupGuarded(info, stack) {
				allocs = append(allocs, hotSite{n.Pos(), desc})
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) &&
				!allowedByFlow(info, n, stack, results) {
				allocs = append(allocs, hotSite{n.Pos(), "string concatenation"})
			}
		case *ast.CallExpr:
			switch calleeBuiltin(info, n) {
			case "make", "new":
				if !allowedByFlow(info, n, stack, results) && !warmupGuarded(info, stack) {
					allocs = append(allocs, hotSite{n.Pos(), calleeBuiltin(info, n) + "()"})
				}
				return true
			case "append":
				if !allowedByFlow(info, n, stack, results) && !warmupGuarded(info, stack) &&
					!trustedAppend(m, info, d.fd, n) {
					allocs = append(allocs, hotSite{n.Pos(), "append growth on untrusted slice"})
				}
				return true
			}
			if fn := calleeFunc(info, n); fn != nil {
				if moduleFunc(m, fn) {
					edges = append(edges, funcID(fn))
				} else if pkg := allocStdlibPkg(fn); pkg != "" &&
					!allowedByFlow(info, n, stack, results) {
					allocs = append(allocs, hotSite{n.Pos(),
						"allocating call to " + pkg + "." + fn.Name()})
				}
			}
		}
		return true
	})
	return allocs, distinct(edges)
}

// coldBlocks marks blocks whose last statement is recognizably an error
// or panic tail: `return ..., err`, `return ..., fmt.Errorf(...)`,
// `return &SomeError{...}`, or `panic(...)`. Allocation inside them is
// off the steady-state path.
func coldBlocks(info *types.Info, fd *ast.FuncDecl) map[ast.Node]bool {
	cold := map[ast.Node]bool{}
	mark := func(block ast.Node, list []ast.Stmt) {
		if len(list) == 0 {
			return
		}
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			if len(last.Results) > 0 && coldTailExpr(info, last.Results[len(last.Results)-1]) {
				cold[block] = true
			}
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin {
						cold[block] = true
					}
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			mark(n, n.List)
		case *ast.CaseClause:
			mark(n, n.Body)
		case *ast.CommClause:
			mark(n, n.Body)
		}
		return true
	})
	return cold
}

// coldTailExpr reports whether a return's final expression is an error
// value rather than a hot delegation: a non-nil error-typed identifier,
// a fmt/errors constructor, or a heap error literal.
func coldTailExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return false
		}
		tv, ok := info.Types[e]
		return ok && tv.Type != nil && isErrorType(tv.Type)
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "fmt", "errors":
			return true
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// resultObjs collects the function's result variables: named results
// plus every identifier returned anywhere in the body. Allocations that
// flow into them are the function's contract, not per-call garbage.
func resultObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// allowedByFlow reports whether an allocation's value flows into the
// function's results: it sits inside a return statement, or on the
// right-hand side of an assignment whose matching left-hand side is
// rooted in a result variable.
func allowedByFlow(info *types.Info, n ast.Node, stack []ast.Node, results map[types.Object]bool) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.AssignStmt:
			if len(a.Lhs) != len(a.Rhs) {
				return false
			}
			for j, rhs := range a.Rhs {
				if !containsNode(rhs, n) {
					continue
				}
				if obj := baseIdentObj(info, a.Lhs[j]); obj != nil && results[obj] {
					return true
				}
			}
			return false
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.CaseClause, *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
			return false
		}
	}
	return false
}

// containsNode reports whether target is within the subtree rooted at n.
func containsNode(n ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if x == target {
			found = true
		}
		return !found
	})
	return found
}

// baseIdentObj resolves the root identifier of an lvalue chain
// (outs[i], sc.acts, *p) to its object.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// warmupGuarded reports whether an allocation sits under an if whose
// condition checks cap/len or nil — the warm-up/lazy-init idiom that
// stops allocating once buffers reach steady size.
func warmupGuarded(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, isB := info.Uses[id].(*types.Builtin); isB &&
						(b.Name() == "cap" || b.Name() == "len") {
						guarded = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					if isNilIdent(n.X) || isNilIdent(n.Y) {
						guarded = true
					}
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// trustedAppend reports whether append's slice operand was created in
// this function with known capacity: defined from make, a slice
// expression, or a module call's result. Appending to such a slice in
// steady state reuses the warmed capacity.
func trustedAppend(m *Module, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	obj := baseIdentObj(info, call.Args[0])
	if obj == nil {
		return false
	}
	trusted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if trusted {
			return false
		}
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for j, lhs := range a.Lhs {
			if baseIdentObj(info, lhs) != obj {
				continue
			}
			switch rhs := ast.Unparen(a.Rhs[j]).(type) {
			case *ast.SliceExpr:
				trusted = true
			case *ast.CallExpr:
				if calleeBuiltin(info, rhs) == "make" {
					trusted = true
				} else if moduleFunc(m, calleeFunc(info, rhs)) {
					trusted = true
				}
			}
		}
		return true
	})
	return trusted
}

// compositeAllocDesc classifies a composite literal: slice and map
// literals allocate, as does &T{...}; plain struct and array values do
// not. Literals nested inside an already-reported parent literal are
// skipped.
func compositeAllocDesc(info *types.Info, lit *ast.CompositeLit, stack []ast.Node) string {
	if len(stack) >= 2 {
		switch p := stack[len(stack)-2].(type) {
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return "heap composite literal (&" + types.ExprString(lit.Type) + "{...})"
			}
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return "" // inner literal of an outer one: judged at the outer node
		}
	}
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return ""
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		return "slice literal"
	case *types.Map:
		return "map literal"
	}
	return ""
}

// litRecovers reports whether a function literal contains a recover()
// call (at any depth not crossing another literal boundary is not
// distinguished — any recover marks it as a barrier).
func litRecovers(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeBuiltin returns the name of the builtin a call invokes ("" for
// non-builtins).
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// allocStdlibPkg names the standard-library packages whose calls imply
// allocation on the caller's side ("" for everything else).
func allocStdlibPkg(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch p := fn.Pkg().Path(); p {
	case "fmt", "strconv", "strings", "errors", "sort", "bytes":
		return p
	}
	return ""
}

// isStringExpr reports whether an expression has string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
