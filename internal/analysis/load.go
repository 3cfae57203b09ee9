package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked, non-test package of the module.
type Package struct {
	Path  string // import path ("bpush/internal/wire")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks every non-test package under the module
// rooted at root (the directory holding go.mod), in dependency order,
// using only the standard library: module-internal imports resolve to the
// packages being loaded, everything else goes through the toolchain's
// export data (with a from-source fallback). Test files are excluded —
// the invariants the suite enforces are about production code, and tests
// legitimately use wall clocks, ad-hoc goroutines and ignored errors.
//
// Directories named testdata or vendor, and hidden or underscore-prefixed
// directories, are skipped, mirroring the go tool.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	raw := map[string]*rawPkg{} // import path -> parsed files
	var paths []string
	walk := func(dir string) error {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			raw[path] = &rawPkg{path: path, dir: dir, files: files}
			paths = append(paths, path)
		}
		return nil
	}
	if err := walkDirs(root, walk); err != nil {
		return nil, err
	}
	sort.Strings(paths)

	ld := &loader{
		fset:    fset,
		modPath: modPath,
		raw:     raw,
		done:    map[string]*Package{},
		gc:      importer.Default(),
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := ld.load(p, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// parseDir parses the non-test Go files of dir, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries { // os.ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// walkDirs visits root and every eligible subdirectory, in sorted order.
func walkDirs(dir string, fn func(string) error) error {
	if err := fn(dir); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var subs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		subs = append(subs, name)
	}
	sort.Strings(subs)
	for _, s := range subs {
		if err := walkDirs(filepath.Join(dir, s), fn); err != nil {
			return err
		}
	}
	return nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

type rawPkg struct {
	path  string
	dir   string
	files []*ast.File
}

// loader type-checks packages on demand, memoizing results and detecting
// import cycles. Module-internal imports recurse; all other paths go to
// the gc importer first (fast, export data) and fall back to the
// from-source importer when export data is unavailable.
type loader struct {
	fset    *token.FileSet
	modPath string
	raw     map[string]*rawPkg
	done    map[string]*Package
	loading []string
	gc      types.Importer
	src     types.Importer
}

func (l *loader) load(path string, stack []string) (*Package, error) {
	if pkg, ok := l.done[path]; ok {
		return pkg, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
	}
	rp, ok := l.raw[path]
	if !ok {
		return nil, fmt.Errorf("analysis: module package %s not found on disk", path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			return l.importPath(ip, append(stack, path))
		}),
	}
	tpkg, err := conf.Check(path, l.fset, rp.files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: rp.dir, Fset: l.fset, Files: rp.files, Types: tpkg, Info: info}
	l.done[path] = pkg
	return pkg, nil
}

func (l *loader) importPath(path string, stack []string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path, stack)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if tp, err := l.gc.Import(path); err == nil {
		return tp, nil
	}
	if l.src == nil {
		l.src = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.src.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
