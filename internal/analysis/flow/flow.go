// Package flow builds a module-wide call graph over type-checked
// packages, using only the standard library's go/ast and go/types, and
// offers reachability queries with deterministic shortest paths. It is
// the substrate for bpush-lint's whole-program analyzers (dettaint,
// hotalloc, lockorder): the per-package analyzers see one function at a
// time, while the invariants they enforce — determinism, allocation
// discipline, lock ordering — leak through call boundaries and
// interfaces.
//
// The graph is conservative in the directions that matter for those
// analyzers:
//
//   - Static calls to module functions and methods become static edges.
//   - Calls through a module-declared interface devirtualize to every
//     module method implementing it (class-hierarchy analysis over the
//     loaded packages). Calls through foreign interfaces (io.Writer,
//     error) are not expanded — module code reached only through a
//     stdlib callback is outside the graph, a documented soundness
//     limit that keeps foreign interfaces from wiring unrelated
//     packages together.
//   - A function literal gets its own node plus a "closure" edge from
//     the enclosing function: whoever builds the closure is charged
//     with everything the closure may do.
//   - A named function or method referenced as a value (pool.For(w, n,
//     fn), sort.Slice(x, less)) gets a "ref" edge from the referencing
//     function: passing a function counts as potentially calling it.
//     Calls through function-typed variables and fields add no further
//     edges — the ref edge at the point the value was taken already
//     covers the behavior.
//
// Everything is deterministic: nodes are sorted by ID, edges by callee
// ID, and breadth-first search visits neighbors in that order, so the
// same module always yields the same graph, the same paths, and the
// same report text.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package — the caller (the
// analysis framework) adapts its own package representation.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call edge was discovered.
type EdgeKind int

const (
	// KindStatic is a direct call to a named function or concrete
	// method.
	KindStatic EdgeKind = iota
	// KindDynamic is a devirtualized call through a module-declared
	// interface; the callee is one implementation candidate.
	KindDynamic
	// KindClosure links a function to a literal defined inside it.
	KindClosure
	// KindRef links a function to a named function it takes as a value
	// (passed, stored, returned) without calling it directly.
	KindRef
)

func (k EdgeKind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindClosure:
		return "closure"
	case KindRef:
		return "ref"
	}
	return "unknown"
}

// A Node is one function in the graph: a declared function or method,
// or a function literal.
type Node struct {
	// ID is the stable, human-readable identity: "pkg.Func",
	// "pkg.Type.Method", or "parentID$litN" for the N-th literal
	// (in source order) inside parent.
	ID string
	// Fn is the types object for declared functions; nil for literals.
	Fn *types.Func
	// Body is the function body; nil for bodyless declarations.
	Body *ast.BlockStmt
	// Pkg is the declaring package.
	Pkg *Package
	// Pos is the declaration position.
	Pos token.Pos
	// Out holds the outgoing edges, sorted by callee ID and deduped.
	Out []Edge
}

// An Edge is one caller→callee relation, positioned at the call,
// literal, or reference expression.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
}

// Graph is the module call graph.
type Graph struct {
	// Nodes are all functions, sorted by ID.
	Nodes []*Node

	byID  map[string]*Node
	byFn  map[*types.Func]*Node
	pkgs  map[string]*Package
	fset  *token.FileSet
	paths []string // sorted package paths
}

// Fset returns the file set positions resolve against.
func (g *Graph) Fset() *token.FileSet { return g.fset }

// NodeOf returns the node for a declared function object, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFn[fn] }

// Build constructs the call graph of the given packages.
func Build(pkgs []*Package) *Graph {
	g := &Graph{
		byID: map[string]*Node{},
		byFn: map[*types.Func]*Node{},
		pkgs: map[string]*Package{},
	}
	b := &builder{g: g, methods: map[string][]*Node{}}
	for _, p := range pkgs {
		if g.fset == nil {
			g.fset = p.Fset
		}
		g.pkgs[p.Path] = p
		g.paths = append(g.paths, p.Path)
	}
	sort.Strings(g.paths)

	// Pass 1: a node per declared function, and the method index used
	// for devirtualization.
	for _, path := range g.paths {
		p := g.pkgs[path]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{ID: declID(p.Path, fn), Fn: fn, Body: fd.Body, Pkg: p, Pos: fd.Pos()}
				g.byID[n.ID] = n
				g.byFn[fn] = n
				g.Nodes = append(g.Nodes, n)
				if sig(fn).Recv() != nil {
					b.methods[fn.Name()] = append(b.methods[fn.Name()], n)
				}
			}
		}
	}

	// Pass 2: walk bodies, creating literal nodes and edges.
	for _, path := range g.paths {
		p := g.pkgs[path]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				b.walkBody(g.byFn[fn], fd.Body)
			}
		}
	}

	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].ID < g.Nodes[j].ID })
	for _, n := range g.Nodes {
		n.Out = dedupeEdges(n.Out)
	}
	return g
}

// sig returns fn's signature. (*types.Func).Signature is a go1.23
// accessor; the module language version is go1.22.
func sig(fn *types.Func) *types.Signature { return fn.Type().(*types.Signature) }

// declID renders the stable identity of a declared function.
func declID(pkgPath string, fn *types.Func) string {
	if recv := sig(fn).Recv(); recv != nil {
		return pkgPath + "." + recvTypeName(recv.Type()) + "." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// recvTypeName strips pointers and type parameters off a receiver type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func dedupeEdges(edges []Edge) []Edge {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Callee.ID != edges[j].Callee.ID {
			return edges[i].Callee.ID < edges[j].Callee.ID
		}
		return edges[i].Pos < edges[j].Pos
	})
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].Callee == e.Callee {
			continue
		}
		out = append(out, e)
	}
	return out
}

// builder carries the per-build indexes.
type builder struct {
	g       *Graph
	methods map[string][]*Node // method name -> declared method nodes
}

func (g *Graph) moduleInterface(t types.Type) (*types.Interface, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || g.pkgs[obj.Pkg().Path()] == nil {
		return nil, false
	}
	iface, ok := named.Underlying().(*types.Interface)
	return iface, ok
}

// implementations returns the module methods named name whose receiver
// type satisfies iface, in ID order.
func (b *builder) implementations(iface *types.Interface, name string) []*Node {
	var out []*Node
	for _, m := range b.methods[name] {
		rt := sig(m.Fn).Recv().Type()
		if types.Implements(rt, iface) {
			out = append(out, m)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), iface) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// callees resolves a referenced function object to its graph targets:
// the node itself for module functions and concrete methods, the
// implementation candidates for module interface methods.
func (b *builder) callees(fn *types.Func) ([]*Node, EdgeKind) {
	if n := b.g.byFn[fn]; n != nil {
		return []*Node{n}, KindStatic
	}
	recv := sig(fn).Recv()
	if recv == nil {
		return nil, KindStatic // foreign function
	}
	if iface, ok := b.g.moduleInterface(recv.Type()); ok {
		return b.implementations(iface, fn.Name()), KindDynamic
	}
	return nil, KindStatic // foreign method, or foreign interface
}

// walkBody adds the edges of one function body to node, creating nodes
// for the literals it contains.
func (b *builder) walkBody(node *Node, body *ast.BlockStmt) {
	w := &walker{b: b, node: node, callIdents: map[*ast.Ident]bool{}}
	ast.Inspect(body, w.visit)
}

// walker traverses one function body. Function literals are handed
// their own walker so edges land on the right node.
type walker struct {
	b    *builder
	node *Node
	// lits numbers the literals directly inside this node, in source
	// order, for stable IDs.
	lits int
	// callIdents marks identifiers consumed as direct callees, so the
	// reference scan does not double-count them.
	callIdents map[*ast.Ident]bool
}

func (w *walker) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		w.lits++
		lit := &Node{
			ID:   w.node.ID + "$lit" + itoa(w.lits),
			Body: x.Body,
			Pkg:  w.node.Pkg,
			Pos:  x.Pos(),
		}
		w.b.g.byID[lit.ID] = lit
		w.b.g.Nodes = append(w.b.g.Nodes, lit)
		w.node.Out = append(w.node.Out, Edge{Caller: w.node, Callee: lit, Pos: x.Pos(), Kind: KindClosure})
		inner := &walker{b: w.b, node: lit, callIdents: w.callIdents}
		ast.Inspect(x.Body, inner.visit)
		return false
	case *ast.CallExpr:
		if id := calleeIdent(w.node.Pkg.Info, x.Fun); id != nil {
			w.callIdents[id] = true
			if fn, ok := w.node.Pkg.Info.Uses[id].(*types.Func); ok {
				targets, kind := w.b.callees(fn)
				for _, t := range targets {
					w.node.Out = append(w.node.Out, Edge{Caller: w.node, Callee: t, Pos: x.Pos(), Kind: kind})
				}
			}
		}
		return true
	case *ast.Ident:
		if w.callIdents[x] {
			return true
		}
		fn, ok := w.node.Pkg.Info.Uses[x].(*types.Func)
		if !ok {
			return true
		}
		targets, kind := w.b.callees(fn)
		if kind == KindStatic {
			kind = KindRef
		}
		for _, t := range targets {
			w.node.Out = append(w.node.Out, Edge{Caller: w.node, Callee: t, Pos: x.Pos(), Kind: kind})
		}
		return true
	}
	return true
}

// calleeIdent returns the identifier naming the direct callee of fun,
// unwrapping parens, generic instantiation, and selectors; nil when the
// callee is not a named function (a literal, a conversion, a computed
// expression).
func calleeIdent(info *types.Info, fun ast.Expr) *ast.Ident {
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.Ident:
			return f
		case *ast.SelectorExpr:
			return f.Sel
		default:
			return nil
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Inspect walks the node's own body, skipping nested function literals
// (each literal is its own node and is inspected separately). fn
// follows the ast.Inspect contract.
func (n *Node) Inspect(fn func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}

// Lookup resolves an entry-point spec to graph nodes. Three forms:
//
//	pkgpath.Func          one declared function
//	pkgpath.Type.Method   one method; for a module interface, every
//	                      implementing module method
//	pkgpath.Type.*        all methods of Type (resp. all implementations
//	                      of every interface method)
//
// The result is in ID order; an empty result means the spec matched
// nothing (a config error the caller should surface).
func (g *Graph) Lookup(spec string) []*Node {
	pkgPath, rest := splitSpec(spec)
	p := g.pkgs[pkgPath]
	if p == nil || rest == "" {
		return nil
	}
	name, method, hasMethod := strings.Cut(rest, ".")
	if !hasMethod {
		if n := g.byID[pkgPath+"."+name]; n != nil && n.Fn != nil && sig(n.Fn).Recv() == nil {
			return []*Node{n}
		}
		return nil
	}

	b := &builder{g: g, methods: map[string][]*Node{}}
	for _, n := range g.Nodes {
		if n.Fn != nil && sig(n.Fn).Recv() != nil {
			b.methods[n.Fn.Name()] = append(b.methods[n.Fn.Name()], n)
		}
	}

	tn, _ := p.Types.Scope().Lookup(name).(*types.TypeName)
	var iface *types.Interface
	if tn != nil {
		if i, ok := tn.Type().Underlying().(*types.Interface); ok {
			iface = i
		}
	}

	if method == "*" {
		var out []*Node
		if iface != nil {
			for i := 0; i < iface.NumMethods(); i++ {
				out = append(out, b.implementations(iface, iface.Method(i).Name())...)
			}
		} else {
			prefix := pkgPath + "." + name + "."
			for _, n := range g.Nodes {
				if n.Fn != nil && strings.HasPrefix(n.ID, prefix) && !strings.Contains(strings.TrimPrefix(n.ID, prefix), ".") {
					out = append(out, n)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return dedupeNodes(out)
	}
	if iface != nil {
		return b.implementations(iface, method)
	}
	if n := g.byID[pkgPath+"."+name+"."+method]; n != nil {
		return []*Node{n}
	}
	return nil
}

// splitSpec separates the package path from the symbol part: the path
// runs to the first dot after the last slash.
func splitSpec(spec string) (pkgPath, rest string) {
	slash := strings.LastIndex(spec, "/")
	dot := strings.Index(spec[slash+1:], ".")
	if dot < 0 {
		return spec, ""
	}
	dot += slash + 1
	return spec[:dot], spec[dot+1:]
}

func dedupeNodes(ns []*Node) []*Node {
	out := ns[:0]
	for _, n := range ns {
		if len(out) > 0 && out[len(out)-1] == n {
			continue
		}
		out = append(out, n)
	}
	return out
}

// Reach is the result of a breadth-first reachability query: for every
// reached node, its depth and the edge it was first reached through.
type Reach struct {
	depth  map[*Node]int
	parent map[*Node]Edge // zero Caller for roots
	order  []*Node        // BFS order (deterministic)
}

// Reach runs BFS from the given roots. Roots are deduped; neighbor
// order follows the sorted edge lists, so depths, parents, and paths
// are deterministic.
func (g *Graph) Reach(roots []*Node) *Reach {
	r := &Reach{depth: map[*Node]int{}, parent: map[*Node]Edge{}}
	sorted := append([]*Node(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var queue []*Node
	for _, n := range dedupeNodes(sorted) {
		if _, ok := r.depth[n]; ok {
			continue
		}
		r.depth[n] = 0
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		r.order = append(r.order, n)
		for _, e := range n.Out {
			if _, ok := r.depth[e.Callee]; ok {
				continue
			}
			r.depth[e.Callee] = r.depth[n] + 1
			r.parent[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return r
}

// Depth returns the BFS depth of n (0 for roots), or -1 if unreached.
func (r *Reach) Depth(n *Node) int {
	d, ok := r.depth[n]
	if !ok {
		return -1
	}
	return d
}

// Nodes returns every reached node in BFS order.
func (r *Reach) Nodes() []*Node { return r.order }

// Path returns the root-to-n node chain n was first reached through,
// or nil if unreached.
func (r *Reach) Path(n *Node) []*Node {
	if _, ok := r.depth[n]; !ok {
		return nil
	}
	var rev []*Node
	for {
		rev = append(rev, n)
		e, ok := r.parent[n]
		if !ok {
			break
		}
		n = e.Caller
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// PathString renders a path as "a → b → c" with the module prefix
// trimmed from each ID for readability.
func PathString(path []*Node, modPrefix string) string {
	var sb strings.Builder
	for i, n := range path {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(strings.TrimPrefix(n.ID, modPrefix))
	}
	return sb.String()
}
