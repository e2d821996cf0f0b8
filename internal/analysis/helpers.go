package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Shared machinery for the call-graph analyzers (panicpath, lockorder,
// goleak, hotalloc, deadlineflow): one index of every function body in
// the module, one call-target resolver, one breadth-first reachability
// walk, and a witness-chain renderer for transitive diagnostics. Each
// analyzer keeps its own per-function AST walk and its own extent rule.

// declInfo is one declared function body plus the package context needed
// to resolve identifiers inside it.
type declInfo struct {
	pkg *Package
	fd  *ast.FuncDecl
}

// funcIndex is the module's function index: every function declaration
// with a body by canonical funcID, the ids in sorted order, and the
// module's named types for interface dispatch.
type funcIndex struct {
	ids   []string
	decls map[string]*declInfo
	named []*types.Named
}

// funcs returns the module's function index, building it on first use.
func (m *Module) funcs() *funcIndex {
	if m.index != nil {
		return m.index
	}
	ix := &funcIndex{decls: map[string]*declInfo{}}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					ix.decls[funcID(obj)] = &declInfo{pkg: pkg, fd: fd}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				ix.named = append(ix.named, n)
			}
		}
	}
	for id := range ix.decls {
		ix.ids = append(ix.ids, id)
	}
	sort.Strings(ix.ids)
	m.index = ix
	return ix
}

// callTargets resolves a call to the module functions it may run: every
// module implementation of an interface method, in sorted order, or else
// the static callee when it is a module function. Builtins, function
// values and standard-library functions resolve to none.
func (m *Module) callTargets(info *types.Info, call *ast.CallExpr) []string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				return implementations(m.funcs().named, iface, s.Obj().Name())
			}
		}
	}
	if f := calleeFunc(info, call); moduleFunc(m, f) {
		return []string{funcID(f)}
	}
	return nil
}

// walkFrom visits, breadth first, every function reachable from roots
// along the edges visit returns, each exactly once and in discovery
// order. parent maps each discovered function to the one that found it
// first, so chain(parent, id) renders the path the walk took.
func walkFrom(roots []string, visit func(id string, parent map[string]string) []string) {
	parent := map[string]string{}
	var queue []string
	discover := func(id, from string) {
		if _, ok := parent[id]; !ok {
			parent[id] = from
			queue = append(queue, id)
		}
	}
	for _, id := range roots {
		discover(id, "")
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range visit(id, parent) {
			discover(e, id)
		}
	}
}

// distinct sorts ids and drops repeats.
func distinct(ids []string) []string {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// exprKey renders a lock receiver expression ("p.mu", "pool.mu") as a
// stable string key. Distinct dynamic instances sharing a key (e.g. the
// same field of two different structs in one function) are conservatively
// treated as one lock.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[i]"
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	}
	return "?"
}

// witnessChain renders a transitive diagnosis "f -> g -> h: <why>" from
// a per-function witness map (each entry names the callee that carries
// the property, terminated by a direct description).
type witness struct {
	next string // callee id carrying the property ("" for a direct site)
	why  string // direct description at the chain's end
}

func renderChain(witnesses map[string]witness, start string) string {
	var hops []string
	seen := map[string]bool{}
	cur := start
	for cur != "" && !seen[cur] {
		seen[cur] = true
		hops = append(hops, shortFuncID(cur))
		w, ok := witnesses[cur]
		if !ok {
			break
		}
		if w.next == "" {
			return strings.Join(hops, " -> ") + ": " + w.why
		}
		cur = w.next
	}
	return strings.Join(hops, " -> ")
}

// propagate computes the transitive closure of a per-function property
// over call edges: any function calling a property-carrying function
// carries it too, with the callee recorded as witness. direct holds the
// seed set (witnesses with next == ""); callees the per-function
// outgoing edges, visited in the sorted order of ids so the fixed point
// is deterministic.
func propagate(ids []string, direct map[string]witness, callees map[string][]string) map[string]witness {
	out := make(map[string]witness, len(direct))
	for id, w := range direct {
		out[id] = w
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if _, ok := out[id]; ok {
				continue
			}
			for _, c := range callees[id] {
				if _, ok := out[c]; ok {
					out[id] = witness{next: c}
					changed = true
					break
				}
			}
		}
	}
	return out
}

// funcLitInvokedInline reports whether a function literal's body runs
// within the enclosing function's own control flow: immediately invoked
// (`func(){...}()`) or deferred (defers run before the function returns,
// within its dynamic extent). Literals launched with `go` or stored for
// later run elsewhere.
func funcLitInvokedInline(stack []ast.Node, lit *ast.FuncLit) bool {
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	call, ok := parent.(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != ast.Expr(lit) {
		return false
	}
	if len(stack) < 3 {
		return true
	}
	switch stack[len(stack)-3].(type) {
	case *ast.GoStmt:
		return false
	case *ast.DeferStmt:
		return true
	}
	return true
}

// inspectWithStack walks a subtree keeping the ancestor stack, calling f
// with each node and its path from the root (inclusive). Returning false
// from f prunes the subtree.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !f(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}
