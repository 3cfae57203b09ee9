package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bpush/internal/analysis/flow"
)

// hotpathPrefix marks a function declaration as a per-cycle hot entry
// point: everything it reaches runs once per client per broadcast
// cycle, so allocations there are multiplied by cycle count × client
// count. The directive lives in the function's doc comment and, like
// //lint:allow, requires a written reason:
//
//	//lint:hotpath invalidation runs once per client per cycle
//	func (s *invOnly) NewCycle(b *broadcast.Bcast) error { ... }
const hotpathPrefix = "//lint:hotpath"

// HotAllocAnalyzer flags allocation sites reachable from the annotated
// hot entry points, as a ranked work-list: every finding carries its
// call-path depth from the nearest root, shallow first being the
// cheapest to fix. Sites flagged:
//
//   - make and new calls;
//   - slice, map, and pointer composite literals;
//   - function literals that capture variables (closure allocation);
//   - append calls inside a loop (growth reallocation every cycle);
//   - map-index stores inside a loop (bucket growth);
//   - concrete values boxed into interface parameters of module
//     functions.
//
// The fix is scratch reuse — allocate once per owner, reset per cycle
// (the sg.Graph pattern: grow to a high-water mark, re-slice [:0],
// generation stamps) — not suppression; //lint:allow hotalloc is for allocations
// that are genuinely once-per-cycle-amortized or on cold branches.
// Allocations inside an `if x == nil` lazy-init guard are exempt: that
// is the asked-for once-per-owner shape.
func HotAllocAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flag allocation sites reachable from the //lint:hotpath per-cycle entry points, ranked by call-path depth",
	}
	a.RunModule = func(p *ModulePass) {
		roots := hotpathRoots(p)
		if len(roots) == 0 {
			return
		}
		module := map[string]bool{}
		for _, pkg := range p.Pkgs {
			module[pkg.Path] = true
		}
		reach := p.Graph.Reach(roots)
		for _, n := range reach.Nodes() {
			scanAllocs(p, reach, n, module)
		}
	}
	return a
}

// hotpathRoots collects the annotated entry points; malformed or
// misplaced directives are findings, mirroring the //lint:allow policy.
func hotpathRoots(p *ModulePass) []*flow.Node {
	var roots []*flow.Node
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			inDoc := map[*ast.Comment]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !strings.HasPrefix(c.Text, hotpathPrefix) {
						continue
					}
					inDoc[c] = true
					reason := strings.TrimSpace(strings.TrimPrefix(c.Text, hotpathPrefix))
					if reason == "" {
						p.Reportf(c.Pos(), "malformed hotpath annotation: want %s <reason>", hotpathPrefix)
						continue
					}
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if n := p.Graph.NodeOf(fn); n != nil {
						roots = append(roots, n)
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, hotpathPrefix) && !inDoc[c] {
						p.Reportf(c.Pos(), "misplaced hotpath annotation: it must be in a function's doc comment")
					}
				}
			}
		}
	}
	return roots
}

// scanAllocs walks one node's own body, tracking loop depth, and
// reports the allocation sites.
func scanAllocs(p *ModulePass, reach *flow.Reach, n *flow.Node, module map[string]bool) {
	w := &allocWalker{p: p, reach: reach, node: n, module: module}
	if n.Body == nil {
		return
	}
	for _, st := range n.Body.List {
		w.stmt(st, 0)
	}
}

type allocWalker struct {
	p      *ModulePass
	reach  *flow.Reach
	node   *flow.Node
	module map[string]bool
	// lazyInit is set inside the then-branch of an `x == nil` guard:
	// make/new/literal allocations there are once-per-owner
	// initialization, not per-cycle churn.
	lazyInit bool
}

// isNilGuard recognizes `x == nil` conditions (any operand order).
func isNilGuard(cond ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(b.X) || isNil(b.Y)
}

func (w *allocWalker) report(pos token.Pos, kind, detail string) {
	depth := w.reach.Depth(w.node)
	path := flow.PathString(w.reach.Path(w.node), "")
	w.p.Reportf(pos, "hot-path alloc [depth %d] %s (%s) via %s: allocate once per owner and reuse scratch across cycles", depth, kind, detail, path)
}

// stmt dispatches one statement at the given loop depth.
func (w *allocWalker) stmt(st ast.Stmt, loop int) {
	switch s := st.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, loop)
		}
		if s.Cond != nil {
			w.expr(s.Cond, loop)
		}
		if s.Post != nil {
			w.stmt(s.Post, loop+1)
		}
		for _, b := range s.Body.List {
			w.stmt(b, loop+1)
		}
	case *ast.RangeStmt:
		w.expr(s.X, loop)
		for _, b := range s.Body.List {
			w.stmt(b, loop+1)
		}
	case *ast.BlockStmt:
		for _, b := range s.List {
			w.stmt(b, loop)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, loop)
		}
		w.expr(s.Cond, loop)
		if isNilGuard(s.Cond) {
			// Lazy init: an allocation guarded by `x == nil` runs once
			// per owner, which is exactly the scratch-reuse pattern the
			// analyzer asks for.
			saved := w.lazyInit
			w.lazyInit = true
			w.stmt(s.Body, loop)
			w.lazyInit = saved
		} else {
			w.stmt(s.Body, loop)
		}
		if s.Else != nil {
			w.stmt(s.Else, loop)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, loop)
		}
		if s.Tag != nil {
			w.expr(s.Tag, loop)
		}
		w.stmt(s.Body, loop)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, loop)
		}
		w.stmt(s.Body, loop)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, loop)
		}
		for _, b := range s.Body {
			w.stmt(b, loop)
		}
	case *ast.SelectStmt:
		w.stmt(s.Body, loop)
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm, loop)
		}
		for _, b := range s.Body {
			w.stmt(b, loop)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, loop)
	case *ast.AssignStmt:
		w.assign(s, loop)
	case *ast.ExprStmt:
		w.expr(s.X, loop)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, loop)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, loop)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, loop)
		w.expr(s.Value, loop)
	case *ast.IncDecStmt:
		w.expr(s.X, loop)
	case *ast.DeferStmt:
		w.expr(s.Call, loop)
	case *ast.GoStmt:
		w.expr(s.Call, loop)
	}
}

// assign handles map-index stores before descending into both sides.
func (w *allocWalker) assign(s *ast.AssignStmt, loop int) {
	if loop > 0 {
		for _, lhs := range s.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			if tv, ok := w.node.Pkg.Info.Types[ix.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					w.report(ix.Pos(), "map insert in loop", types.ExprString(ix.X))
				}
			}
		}
	}
	for _, e := range s.Lhs {
		w.expr(e, loop)
	}
	for _, e := range s.Rhs {
		w.expr(e, loop)
	}
}

// expr scans one expression subtree, skipping nested function literals'
// bodies (they are their own graph nodes) but flagging capturing
// literals as closure allocations.
func (w *allocWalker) expr(e ast.Expr, loop int) {
	info := w.node.Pkg.Info
	ast.Inspect(e, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if w.captures(v) {
				w.report(v.Pos(), "closure capture", "func literal")
			}
			return false
		case *ast.CallExpr:
			if !w.lazyInit {
				if isBuiltin(info, v.Fun, "make") {
					w.report(v.Pos(), "make", types.ExprString(v))
				}
				if isBuiltin(info, v.Fun, "new") {
					w.report(v.Pos(), "new", types.ExprString(v))
				}
			}
			if loop > 0 && isBuiltin(info, v.Fun, "append") {
				w.report(v.Pos(), "append growth in loop", types.ExprString(v.Args[0]))
			}
			w.boxing(v)
		case *ast.UnaryExpr:
			if v.Op == token.AND && !w.lazyInit {
				if _, ok := v.X.(*ast.CompositeLit); ok {
					w.report(v.Pos(), "escaping composite literal", types.ExprString(v.X.(*ast.CompositeLit).Type))
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[v]; ok && tv.Type != nil && !w.lazyInit {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					w.report(v.Pos(), "slice literal", typeString(v.Type))
				case *types.Map:
					w.report(v.Pos(), "map literal", typeString(v.Type))
				}
			}
		}
		return true
	})
}

// boxing flags concrete values converted to interface parameters of
// module-declared functions — each boxing heap-allocates the value per
// call. Foreign callees (fmt.Errorf and friends on cold error paths)
// and variadic tails are left alone; untyped constants and
// pointer-shaped values (pointers, channels, maps, funcs) box without
// allocating and are not findings.
func (w *allocWalker) boxing(call *ast.CallExpr) {
	info := w.node.Pkg.Info
	id := calleeIdentExpr(call.Fun)
	if id == nil {
		return
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !w.module[fn.Pkg().Path()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params().Len()
	for i, arg := range call.Args {
		if i >= params || (sig.Variadic() && i >= params-1) {
			break
		}
		if !types.IsInterface(sig.Params().At(i).Type()) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || types.IsInterface(tv.Type) {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		}
		w.report(arg.Pos(), "interface boxing", types.ExprString(arg))
	}
}

// calleeIdentExpr is calleeIdent without needing type info: the
// identifier naming the callee, through parens, instantiation, and
// selection.
func calleeIdentExpr(fun ast.Expr) *ast.Ident {
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

func typeString(t ast.Expr) string {
	if t == nil {
		return "literal"
	}
	return types.ExprString(t)
}

// captures reports whether the literal references a variable declared
// outside itself but inside the enclosing function — the shape that
// forces a heap-allocated closure every evaluation.
func (w *allocWalker) captures(lit *ast.FuncLit) bool {
	info := w.node.Pkg.Info
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		// Declared within the enclosing function (including its
		// receiver and parameters) but not within the literal itself.
		if pos >= w.node.Pos && pos <= w.node.Body.End() && !(pos >= lit.Pos() && pos <= lit.End()) {
			found = true
		}
		return !found
	})
	return found
}
