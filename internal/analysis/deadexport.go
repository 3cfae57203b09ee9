package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExportAnalyzer flags exported surface of internal packages that no
// production code uses. Go's visibility rule already bounds the audience
// of a package under an internal/ segment to this module, and Load reads
// no _test.go file, so an exported package-level func, type, const or var
// — or an exported method — with no use in the loaded packages serves
// only tests: it belongs in a _test.go file, or nowhere.
//
// A type whose only uses sit inside its own methods counts as unused.
// Exempt are:
//
//   - a method that makes its type satisfy an interface the loaded
//     packages declare or use, or one declared by a package they import,
//     also when it does so for a type that embeds its receiver and
//     promotes the method;
//   - the errors protocol, Is(error) bool, As(any) bool and
//     Unwrap() error, which errors.Is and errors.As reach through an
//     interface the module never names;
//   - packages whose name ends in "test", the stdlib's httptest
//     convention for helpers only tests import.
func DeadExportAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "deadexport",
		Doc:  "exported identifiers of internal packages must have a use in non-test code",
	}
	a.RunModule = func(p *ModulePass) {
		used := usedObjects(p.Pkgs)
		ifaces := interfacesByMethod(p.Pkgs)
		named := namedTypes(p.Pkgs)
		report := func(obj types.Object, kind, name string) {
			p.Reportf(obj.Pos(), "exported %s %s of %s has no use outside tests: delete it or move it into a _test.go file", kind, name, obj.Pkg().Path())
		}
		for _, pkg := range p.Pkgs {
			if !internalPath(pkg.Path) || strings.HasSuffix(pkg.Types.Name(), "test") {
				continue
			}
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if obj.Exported() && !used[obj] {
					report(obj, objectKind(obj), name)
				}
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				recv, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < recv.NumMethods(); i++ {
					m := recv.Method(i)
					if !m.Exported() || used[m] || errorsProtocol(m) || satisfiesInterface(recv, m.Name(), ifaces) || promotedToInterface(m, named, ifaces) {
						continue
					}
					report(m, "method", name+"."+m.Name())
				}
			}
		}
	}
	return a
}

// internalPath reports whether an import path has an internal segment.
func internalPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}

// usedObjects collects every object some identifier of the loaded
// packages refers to. Generic instances fold to their origin, and a
// type's mentions inside its own method declarations do not count.
func usedObjects(pkgs []*Package) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		own := methodSpans(pkg)
		for id, obj := range pkg.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.TypeName:
				if inSpans(own[o], id.Pos()) {
					continue
				}
			}
			used[obj] = true
		}
	}
	return used
}

type span struct{ pos, end token.Pos }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// methodSpans maps each receiver base type of a package to the source
// ranges of its method declarations.
func methodSpans(pkg *Package) map[*types.TypeName][]span {
	out := map[*types.TypeName][]span{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				tn := named.Origin().Obj()
				out[tn] = append(out[tn], span{fd.Pos(), fd.End()})
			}
		}
	}
	return out
}

// interfacesByMethod indexes, by method name, every non-empty interface
// the loaded packages declare or use and every interface declared at
// package level by a package they import.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	imported := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if tv, ok := pkg.Info.Types[e]; ok && tv.IsType() {
						add(tv.Type)
					}
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			if imported[imp] {
				continue
			}
			imported[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether a method named name lets named (or
// a pointer to it) implement some indexed interface that asks for it.
func satisfiesInterface(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[name] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// namedTypes lists the package-level named types of the loaded packages.
func namedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// promotedToInterface reports whether m is promoted into some type of
// named that, through it, implements an indexed interface asking for it.
func promotedToInterface(m *types.Func, named []*types.Named, ifaces map[string][]*types.Interface) bool {
	for _, n := range named {
		obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name())
		if obj == m && satisfiesInterface(n, m.Name(), ifaces) {
			return true
		}
	}
	return false
}

// errorsProtocol reports whether m is Is(error) bool, As(any) bool or
// Unwrap() error, the methods errors.Is and errors.As look for.
func errorsProtocol(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	errType := types.Universe.Lookup("error").Type()
	params, results := sig.Params(), sig.Results()
	switch m.Name() {
	case "Is", "As":
		want := errType
		if m.Name() == "As" {
			want = types.NewInterfaceType(nil, nil)
		}
		return params.Len() == 1 && types.Identical(params.At(0).Type(), want) &&
			results.Len() == 1 && types.Identical(results.At(0).Type(), types.Typ[types.Bool])
	case "Unwrap":
		return params.Len() == 0 && results.Len() == 1 && types.Identical(results.At(0).Type(), errType)
	}
	return false
}
