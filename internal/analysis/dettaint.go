package analysis

import (
	"go/ast"
	"go/types"

	"bpush/internal/analysis/flow"
)

// DetTaintAnalyzer enforces determinism transitively: every function
// reachable from Config.DeterministicRoots through the module call
// graph — across helpers, closures, and module interfaces — must be a
// pure function of its inputs. Three sink families are findings on the
// deterministic plane:
//
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - the global-source math/rand and math/rand/v2 functions (explicitly
//     seeded sources and their constructors New, NewSource, NewZipf,
//     NewPCG, NewChaCha8 are fine);
//   - map iteration whose order escapes into results (the order-safe
//     shapes accepted by the maprange machinery are not findings).
//
// This replaces the old per-package Deterministic scope list: instead
// of blessing whole packages, the config names entry points (e.g.
// "bpush/internal/sim.Run", "bpush/internal/core.Scheme.*") and the
// taint engine finds everything they reach. A sink one helper call
// away, or behind an interface the entry point dispatches through, is
// reported with the call path that reaches it. //lint:allow dettaint
// at the sink line remains the only escape hatch.
func DetTaintAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "dettaint",
		Doc:  "forbid wall-clock reads, global randomness, and map-order escapes everywhere the deterministic entry points reach",
	}
	a.RunModule = func(p *ModulePass) {
		roots, rootless := resolveRoots(p, p.Config.DeterministicRoots)
		if rootless {
			return
		}
		reach := p.Graph.Reach(roots)
		for _, n := range reach.Nodes() {
			scanDetSinks(p, reach, n)
		}
	}
	return a
}

// resolveRoots maps entry-point specs to graph nodes, reporting specs
// that match nothing (a config error that would otherwise silently
// shrink the enforced surface). rootless is true when no spec resolved
// at all.
func resolveRoots(p *ModulePass, specs []string) (nodes []*flow.Node, rootless bool) {
	for _, spec := range specs {
		matched := p.Graph.Lookup(spec)
		if len(matched) == 0 {
			p.Reportconf("deterministic root %q matches no function in the module", spec)
			continue
		}
		nodes = append(nodes, matched...)
	}
	return nodes, len(nodes) == 0
}

var bannedClock = map[string]bool{"Now": true, "Since": true, "Until": true}

var globalRandPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// scanDetSinks reports every determinism sink in one node's own body
// (nested literals are their own nodes), annotated with the
// deterministic call path that reaches it.
func scanDetSinks(p *ModulePass, reach *flow.Reach, n *flow.Node) {
	info := n.Pkg.Info
	via := func() string { return flow.PathString(reach.Path(n), "") }
	n.Inspect(func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			fn, ok := info.Uses[e.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && bannedClock[fn.Name()] {
				p.Reportf(e.Pos(), "time.%s on deterministic path %s: results must be a function of (seed, plan), not the wall clock", fn.Name(), via())
				return true
			}
			// Only package-qualified references draw from the global
			// source: rand.Intn, not r.Intn.
			base, ok := e.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[base].(*types.PkgName)
			if !ok || !globalRandPkgs[pn.Imported().Path()] || seededRandCtors[fn.Name()] {
				return true
			}
			p.Reportf(e.Pos(), "global-source rand.%s on deterministic path %s: draw from an explicit rand.New(rand.NewSource(seed))", fn.Name(), via())
		case *ast.BlockStmt:
			checkMapRanges(p, info, e.List, via)
		case *ast.CaseClause:
			checkMapRanges(p, info, e.Body, via)
		case *ast.CommClause:
			checkMapRanges(p, info, e.Body, via)
		}
		return true
	})
}

// checkMapRanges applies the map-order machinery to the map ranges
// directly in one statement list (each range sees its trailing
// statements for the append-then-sort exemption).
func checkMapRanges(p *ModulePass, info *types.Info, list []ast.Stmt, via func() string) {
	for i, st := range list {
		rs, ok := st.(*ast.RangeStmt)
		if !ok || !isMapRange(info, rs) {
			continue
		}
		if v, bad := mapRangeViolation(info, rs, list[i+1:]); bad {
			p.Reportf(rs.Pos(), "map iteration order escapes (%s at %s) on deterministic path %s; iterate det.SortedKeys, or sort the appended slice immediately after the loop",
				v.what, p.Fset.Position(v.pos), via())
		}
	}
}
