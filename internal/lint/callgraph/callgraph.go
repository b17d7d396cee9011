// Package callgraph builds a conservative static call graph over the
// type-checked packages of one module, for the interprocedural
// sebdb-vet analyzers (lockio, trusttaint, readlock). The graph is
// intentionally sound-leaning rather than precise:
//
//   - Direct calls and method calls are resolved through the type
//     checker (go/types Selections/Uses).
//   - Calls through an interface are widened to the matching method of
//     every in-module named type that implements the interface.
//   - Function literals have no node of their own: their bodies are
//     attributed to the enclosing declared function, so a closure built
//     and run inside a critical section counts as that section's code.
//   - A reference to a named function outside call position (a method
//     value, a handler registration) adds an edge from the referencing
//     function — the value may be invoked from there.
//   - Calls through plain function-typed variables whose target cannot
//     be resolved statically add no edge; the escaping-reference rule
//     above keeps the common patterns covered.
//
// Functions without a loaded body (standard library, interface
// methods) are terminal nodes; analyzers typically treat a curated
// subset of them as sinks.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Package is one loaded, parsed and type-checked package; the lint
// loader produces it and the lint package re-exports it.
type Package struct {
	// Path is the import path ("sebdb/internal/types").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Info carries type-checker facts; it is always non-nil but may be
	// partial when type checking hit errors (e.g. an unresolvable
	// import). Analyzers must degrade gracefully on missing entries.
	Info *types.Info
	// Types is the checked package object (possibly incomplete).
	Types *types.Package
}

// Graph is the module's call graph.
type Graph struct {
	edges map[*types.Func][]*types.Func
	decls map[*types.Func]*ast.FuncDecl
	pkgs  map[*types.Func]*Package
	// order lists declared functions in load order, keeping BFS results
	// (witness-path choices in particular) deterministic across runs.
	order []*types.Func
	// named holds every non-interface named type declared in the module,
	// the candidate set for interface widening.
	named []*types.Named
	// widen memoises interface-method widening by interface method.
	widen map[*types.Func][]*types.Func
}

// Build constructs the graph over the given packages.
func Build(pkgs []*Package) *Graph {
	g := &Graph{
		edges: make(map[*types.Func][]*types.Func),
		decls: make(map[*types.Func]*ast.FuncDecl),
		pkgs:  make(map[*types.Func]*Package),
		widen: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		g.collectNamed(pkg)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || fn == nil {
					continue
				}
				g.decls[fn] = fd
				g.pkgs[fn] = pkg
				g.order = append(g.order, fn)
				g.addBodyEdges(pkg.Info, fn, fd.Body)
			}
		}
	}
	return g
}

// collectNamed records the package's named non-interface types.
func (g *Graph) collectNamed(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		g.named = append(g.named, named)
	}
}

// addBodyEdges walks one declared function's body (closures included)
// and records its outgoing edges.
func (g *Graph) addBodyEdges(info *types.Info, from *types.Func, body *ast.BlockStmt) {
	seen := make(map[*types.Func]bool, 8)
	add := func(to *types.Func) {
		if to == nil || to == from || seen[to] {
			return
		}
		seen[to] = true
		g.edges[from] = append(g.edges[from], to)
	}
	calls := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			calls[n.Fun] = true
			for _, to := range g.CalleesAt(info, n) {
				add(to)
			}
		case *ast.Ident:
			// A function mentioned outside call position escapes: it may be
			// invoked by whatever it was handed to.
			if calls[ast.Expr(n)] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				add(fn)
			}
		case *ast.SelectorExpr:
			if calls[ast.Expr(n)] {
				// The callee of a call already handled above; stop the
				// nested Ident from re-adding pkg-qualified names.
				calls[n.Sel] = true
			}
		}
		return true
	})
}

// CalleesAt resolves the possible static targets of one call: the
// type-checker's callee, widened over in-module implementations when
// the call goes through an interface. Unresolvable calls (plain
// function values, type conversions) yield nil.
func (g *Graph) CalleesAt(info *types.Info, call *ast.CallExpr) []*types.Func {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations: f[T](...) / m[T1, T2](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			out := []*types.Func{fn}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				out = append(out, g.implementations(iface, fn)...)
			}
			return out
		}
		// Package-qualified function: pkg.F(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementations widens one interface method to the matching method of
// every in-module type implementing the interface.
func (g *Graph) implementations(iface *types.Interface, m *types.Func) []*types.Func {
	if out, ok := g.widen[m]; ok {
		return out
	}
	var out []*types.Func
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && fn != m {
			out = append(out, fn)
		}
	}
	g.widen[m] = out
	return out
}

// Decl returns the AST declaration of a module function, or nil for
// bodyless (imported / interface) functions.
func (g *Graph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Package returns the package declaring a module function, or nil for
// bodyless (imported / interface) functions.
func (g *Graph) Package(fn *types.Func) *Package { return g.pkgs[fn] }

// Funcs returns every declared module function in load order.
func (g *Graph) Funcs() []*types.Func {
	return append([]*types.Func(nil), g.order...)
}

// Callees returns fn's outgoing edges.
func (g *Graph) Callees(fn *types.Func) []*types.Func { return g.edges[fn] }

// Reach answers "does this function transitively reach a sink", with
// one witness path per function, for a fixed sink predicate.
type Reach struct {
	sink map[*types.Func]bool
	next map[*types.Func]*types.Func
}

// Reaches computes reachability to the functions matched by isSink via
// one reverse breadth-first pass, so per-function queries are O(1).
// Nodes are visited in declaration order (edge targets in call order),
// so witness paths are stable across runs.
func (g *Graph) Reaches(isSink func(*types.Func) bool) *Reach {
	// Reverse adjacency over every node mentioned in the graph.
	rev := make(map[*types.Func][]*types.Func, len(g.edges))
	var nodes []*types.Func
	seen := make(map[*types.Func]bool, len(g.edges))
	note := func(fn *types.Func) {
		if !seen[fn] {
			seen[fn] = true
			nodes = append(nodes, fn)
		}
	}
	for _, from := range g.order {
		note(from)
		for _, to := range g.edges[from] {
			note(to)
			rev[to] = append(rev[to], from)
		}
	}
	r := &Reach{sink: make(map[*types.Func]bool), next: make(map[*types.Func]*types.Func)}
	var queue []*types.Func
	for _, fn := range nodes {
		if isSink(fn) {
			r.sink[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, pred := range rev[cur] {
			if _, seen := r.next[pred]; seen || r.sink[pred] {
				continue
			}
			r.next[pred] = cur
			queue = append(queue, pred)
		}
	}
	return r
}

// Reaches reports whether fn is a sink or transitively calls one.
func (r *Reach) Reaches(fn *types.Func) bool {
	if r.sink[fn] {
		return true
	}
	_, ok := r.next[fn]
	return ok
}

// Path returns one witness call chain from fn to a sink (inclusive),
// or nil when fn reaches no sink.
func (r *Reach) Path(fn *types.Func) []*types.Func {
	if !r.Reaches(fn) {
		return nil
	}
	path := []*types.Func{fn}
	for cur := fn; !r.sink[cur]; {
		cur = r.next[cur]
		path = append(path, cur)
	}
	return path
}
