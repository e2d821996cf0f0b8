package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DefaultPanicRoots are the entry points that process untrusted input —
// plan bytes off disk, inference requests off the wire. A panic anywhere
// in their call graphs turns a malformed request into a crashed server,
// so every failure on these paths must be a returned error.
var DefaultPanicRoots = []string{
	"edgeinfer/internal/core.Load",
	"edgeinfer/internal/core.LoadTimingCache",
	"edgeinfer/internal/core.VerifyPlanData",
	"(*edgeinfer/internal/core.Engine).Infer",
	"(*edgeinfer/internal/core.Engine).InferBatchCtx",
	"(*edgeinfer/internal/serve.Executor).DoBatchCtx",
	"(*edgeinfer/internal/serve.Pool).DoBatchCtx",
	// The network front-end: the HTTP handler parses untrusted request
	// bodies and the batcher goroutine serves them.
	"(*edgeinfer/internal/netserve.Server).handleInfer",
	"(*edgeinfer/internal/netserve.modelQueue).run",
	// The learned latency predictor: PredictSec sits inside every pruned
	// build's tuning loop — a panic there turns a degenerate launch into
	// a crashed build instead of a full-menu fallback.
	"(*edgeinfer/internal/latpred.Model).PredictSec",
}

// PanicPath returns the analyzer that walks the static call graph from
// the given roots and reports every reachable panic site. Functions that
// install a defer/recover barrier stop the walk: panics below them are
// converted to errors at runtime. Calls through interface methods are
// resolved to every module type implementing the interface; calls
// through plain function values are not traversed.
func PanicPath(roots []string) *Analyzer {
	return &Analyzer{
		Name: "panicpath",
		Doc:  "forbid panics reachable from plan-loading and request-serving entry points",
		Run: func(m *Module, r *Reporter) {
			runPanicPath(m, roots, r)
		},
	}
}

// funcNode is one function in the module's call graph.
type funcNode struct {
	id      string
	panics  []token.Pos
	callees []string
	barrier bool // has a defer/recover barrier; panics below are caught
}

func runPanicPath(m *Module, roots []string, r *Reporter) {
	nodes := buildCallGraph(m)
	type visit struct{ id, parent string }
	parent := map[string]string{}
	var queue []visit
	for _, root := range roots {
		if _, ok := nodes[root]; ok {
			queue = append(queue, visit{id: root})
		}
	}
	seen := map[string]bool{}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if seen[v.id] {
			continue
		}
		seen[v.id] = true
		parent[v.id] = v.parent
		node := nodes[v.id]
		if node == nil || node.barrier {
			continue
		}
		for _, pos := range node.panics {
			r.Report(Error, pos, "panic reachable from entry point: %s", chain(parent, v.id))
		}
		for _, c := range node.callees {
			if !seen[c] {
				queue = append(queue, visit{id: c, parent: v.id})
			}
		}
	}
}

// chain renders the call path root → ... → id for diagnostics.
func chain(parent map[string]string, id string) string {
	var path []string
	for cur := id; cur != ""; cur = parent[cur] {
		path = append(path, shortFuncID(cur))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return strings.Join(path, " -> ")
}

// shortFuncID drops the package-path prefix from a function ID for
// readable diagnostics: "(*edgeinfer/internal/core.Engine).Infer"
// becomes "(*core.Engine).Infer".
func shortFuncID(id string) string {
	i := strings.LastIndex(id, "/")
	if i < 0 {
		return id
	}
	prefix := ""
	if strings.HasPrefix(id, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(id, "(") {
		prefix = "("
	}
	return prefix + id[i+1:]
}

func buildCallGraph(m *Module) map[string]*funcNode {
	nodes := map[string]*funcNode{}
	ifaceTypes := moduleNamedTypes(m)
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := analyzeFunc(m, pkg, fd, ifaceTypes)
				node.id = funcID(obj)
				nodes[node.id] = node
			}
		}
	}
	return nodes
}

// analyzeFunc collects a function's panic sites, outgoing call edges and
// recover barriers. Function-literal bodies are treated as part of the
// enclosing function: deferred and stored closures may run within its
// dynamic extent.
func analyzeFunc(m *Module, pkg *Package, fd *ast.FuncDecl, named []*types.Named) *funcNode {
	node := &funcNode{}
	callees := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if deferRecovers(pkg.Info, n) {
				node.barrier = true
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin && id.Name == "panic" {
					node.panics = append(node.panics, n.Pos())
					return true
				}
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
						for _, impl := range implementations(named, iface, s.Obj().Name()) {
							callees[impl] = true
						}
						return true
					}
				}
			}
			if f := calleeFunc(pkg.Info, n); moduleFunc(m, f) {
				callees[funcID(f)] = true
			}
		}
		return true
	})
	for c := range callees {
		node.callees = append(node.callees, c)
	}
	sort.Strings(node.callees)
	return node
}

// deferRecovers reports whether the defer statement installs a recover
// barrier: `defer recover()` or `defer func() { ... recover() ... }()`.
func deferRecovers(info *types.Info, d *ast.DeferStmt) bool {
	isRecover := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "recover" {
			return false
		}
		_, builtin := info.Uses[id].(*types.Builtin)
		return builtin
	}
	if isRecover(d.Call) {
		return true
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRecover(call) {
			found = true
		}
		return !found
	})
	return found
}

// moduleNamedTypes lists every named type declared in the module, for
// interface-implementation resolution.
func moduleNamedTypes(m *Module) []*types.Named {
	var out []*types.Named
	for _, pkg := range m.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// implementations resolves an interface method call to the concrete
// module methods that may satisfy it.
func implementations(named []*types.Named, iface *types.Interface, method string) []string {
	var out []string
	for _, n := range named {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			continue
		}
		recv := types.Type(n)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(n)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, n.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok {
			out = append(out, funcID(f))
		}
	}
	sort.Strings(out)
	return out
}

// funcID canonicalizes a function as "pkgpath.Func",
// "(pkgpath.Type).Method" or "(*pkgpath.Type).Method".
func funcID(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = true
		}
		if n, ok := t.(*types.Named); ok {
			full := n.Obj().Name()
			if n.Obj().Pkg() != nil {
				full = n.Obj().Pkg().Path() + "." + full
			}
			if ptr {
				return "(*" + full + ")." + f.Name()
			}
			return "(" + full + ")." + f.Name()
		}
		return "(" + t.String() + ")." + f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}
