package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the map-iteration-order machinery behind dettaint: Go
// randomizes map iteration per run, so an order leak means the same
// (seed, plan) no longer replays byte-identically — the exact failure
// mode the fleet equality tests pin down.
//
// A range over a map is accepted only in order-safe shapes:
//
//   - the body only writes into maps (or other index-addressed slots),
//     touches nothing derived from the loop variables, or exits early
//     without carrying a loop variable out — all order-commutative;
//   - the body is a pure self-append (s = append(s, ...)) and the
//     statement(s) immediately following the loop sort the appended
//     slice (the det.SortedKeys idiom, inlined);
//
// everything else is a violation: iterate det.SortedKeys instead, or
// restructure.

// isMapRange reports whether rs ranges over a map.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapRangeViolation classifies the loop body and returns the first
// order-escape, or ok=false when the loop is order-safe. following
// holds the statements after the loop in the same block, for the
// append-then-sort exemption.
func mapRangeViolation(info *types.Info, rs *ast.RangeStmt, following []ast.Stmt) (rangeViolation, bool) {
	vars := rangeVarObjects(info, rs)
	c := &rangeChecker{info: info, vars: vars}
	c.stmts(rs.Body.List)
	if len(c.violations) == 0 {
		return rangeViolation{}, false
	}
	// Exemption: nothing but self-appends, each sorted right after the
	// loop (one sort statement per distinct append target).
	targets := map[string]bool{}
	onlyAppends := true
	for _, v := range c.violations {
		if v.appendTarget == "" {
			onlyAppends = false
			break
		}
		targets[v.appendTarget] = true
	}
	if onlyAppends && sortedAfter(info, targets, following) {
		return rangeViolation{}, false
	}
	return c.violations[0], true
}

// sortedAfter reports whether the statements directly after the loop are
// sort calls covering every append target.
func sortedAfter(info *types.Info, targets map[string]bool, following []ast.Stmt) bool {
	remaining := len(targets)
	for _, st := range following {
		if remaining == 0 {
			break
		}
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || !isSortCall(info, call) {
			return false
		}
		hit := false
		for _, arg := range call.Args {
			// Sorting a sub-slice of the target (dst[start:]) still sorts
			// everything the loop appended.
			if sl, ok := arg.(*ast.SliceExpr); ok {
				arg = sl.X
			}
			s := types.ExprString(arg)
			if targets[s] {
				delete(targets, s)
				remaining--
				hit = true
			}
		}
		if !hit {
			return false
		}
	}
	return remaining == 0
}

// isSortCall recognizes the sort and slices package entry points.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

func rangeVarObjects(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	add := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	if rs.Key != nil {
		add(rs.Key)
	}
	if rs.Value != nil {
		add(rs.Value)
	}
	return vars
}

type rangeViolation struct {
	pos          token.Pos
	what         string
	appendTarget string // set for s = append(s, ...) self-appends
}

// rangeChecker walks a map-range body and records every statement whose
// effect can depend on iteration order.
type rangeChecker struct {
	info       *types.Info
	vars       map[types.Object]bool
	violations []rangeViolation
}

func (c *rangeChecker) uses(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.info.Uses[id]; obj != nil && c.vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (c *rangeChecker) usesAny(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if c.uses(e) {
			return true
		}
	}
	return false
}

func (c *rangeChecker) add(pos token.Pos, what string) {
	c.violations = append(c.violations, rangeViolation{pos: pos, what: what})
}

func (c *rangeChecker) stmts(list []ast.Stmt) {
	for _, st := range list {
		c.stmt(st)
	}
}

func (c *rangeChecker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		// Commutative accumulation.
	case *ast.ExprStmt:
		c.call(s.X)
	case *ast.BranchStmt:
		// break/continue: whether iteration stops early is
		// order-dependent, but no loop state is carried out here.
	case *ast.ReturnStmt:
		if c.usesAny(s.Results) {
			c.add(s.Pos(), "return of a loop-variable-derived value")
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.stmts(s.Body.List)
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		c.stmts(s.Body.List)
	case *ast.CaseClause:
		c.stmts(s.Body)
	case *ast.ForStmt:
		c.stmts(s.Body.List)
	case *ast.RangeStmt:
		// The nested loop gets its own analysis if it ranges a map; here
		// only the outer loop's variables matter.
		c.stmts(s.Body.List)
	case *ast.SendStmt:
		if c.uses(s.Value) || c.uses(s.Chan) {
			c.add(s.Pos(), "channel send of a loop-variable-derived value")
		}
	case *ast.DeferStmt:
		if c.usesAny(s.Call.Args) || c.uses(s.Call.Fun) {
			c.add(s.Pos(), "deferred call on a loop variable")
		}
	case *ast.GoStmt:
		if c.usesAny(s.Call.Args) || c.uses(s.Call.Fun) {
			c.add(s.Pos(), "goroutine spawned on a loop variable")
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			c.add(s.Pos(), "declaration inside map range")
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && c.usesAny(vs.Values) {
				c.add(s.Pos(), "declaration initialized from a loop variable")
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.EmptyStmt:
	default:
		c.add(st.Pos(), fmt.Sprintf("%T not provably order-safe", st))
	}
}

// assign classifies one assignment inside the body.
func (c *rangeChecker) assign(s *ast.AssignStmt) {
	// Self-append: s = append(s, ...) — order-dependent, but eligible
	// for the sort-immediately-after exemption.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(c.info, call.Fun, "append") && len(call.Args) > 0 {
			lhs := types.ExprString(s.Lhs[0])
			if types.ExprString(call.Args[0]) == lhs {
				if c.usesAny(call.Args[1:]) {
					c.violations = append(c.violations, rangeViolation{
						pos:          s.Pos(),
						what:         fmt.Sprintf("append of a loop variable to %s", lhs),
						appendTarget: lhs,
					})
				}
				return
			}
		}
	}
	for i, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if _, ok := lhs.(*ast.IndexExpr); ok {
			// Index-addressed write (map set, slot write): each key gets
			// its own cell, so iteration order cannot matter.
			continue
		}
		rhs := s.Rhs
		if len(s.Lhs) == len(s.Rhs) {
			rhs = s.Rhs[i : i+1]
		}
		if c.usesAny(rhs) {
			c.add(s.Pos(), fmt.Sprintf("assignment of a loop-variable-derived value to %s", types.ExprString(lhs)))
			return
		}
	}
}

// call classifies a bare expression statement.
func (c *rangeChecker) call(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		if c.uses(e) {
			c.add(e.Pos(), "expression on a loop variable")
		}
		return
	}
	if isBuiltin(c.info, call.Fun, "delete") {
		return
	}
	if c.usesAny(call.Args) || c.uses(call.Fun) {
		c.add(call.Pos(), fmt.Sprintf("call %s on a loop variable", types.ExprString(call.Fun)))
	}
}

// isBuiltin reports whether fun resolves to the named Go builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
