// Command bpush-lint runs the repository's static-analysis suite — the
// analyzers in internal/analysis that encode the repo invariants:
// determinism chased transitively from the configured entry points (no
// wall clock, no global randomness, no map-order leaks anywhere they
// reach), hot-path allocation discipline, lock ordering in the fan-out
// tier, wire-buffer aliasing, goroutine ownership, error hygiene on the
// decode/IO paths, the observability layer's clock seam, and no exported
// internal surface that only tests use.
//
// Usage:
//
//	bpush-lint ./...                  # lint the whole module (run at the root)
//	bpush-lint ./internal/wire        # report findings in selected packages
//	bpush-lint -json ./...            # machine-readable findings
//	bpush-lint -list                  # print the analyzers and their invariants
//	bpush-lint -run dettaint,hotalloc # run only the named analyzers
//	bpush-lint -graph ./internal/core # dump one package's call graph as DOT
//
// The whole-program analyzers (dettaint, hotalloc, lockorder) always
// analyze the full module — a package pattern narrows which findings
// are *reported*, not what is analyzed, so a taint path crossing the
// selected package is never missed by loading too little.
//
// Suppress a finding with a justified comment on the same line or the
// line above:
//
//	//lint:allow dettaint replay timestamps come from the plan, not this clock
//
// Suppressions without a reason, and stale suppressions that no longer
// match a finding, are themselves findings. Exit status: 0 clean, 1
// findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bpush/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("bpush-lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		jsonOut  = fs.Bool("json", false, "emit findings as JSON")
		list     = fs.Bool("list", false, "list the analyzers and exit")
		runNames = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		graphPkg = fs.String("graph", "", "dump the call graph of one package (./dir) as DOT and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runNames != "" {
		selected, err := filterSuite(suite, *runNames)
		if err != nil {
			fmt.Fprintln(errOut, "bpush-lint:", err)
			return 2
		}
		suite = selected
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".")
	if err != nil {
		fmt.Fprintln(errOut, "bpush-lint:", err)
		return 2
	}

	if *graphPkg != "" {
		selected, err := match(pkgs, []string{*graphPkg})
		if err != nil {
			fmt.Fprintln(errOut, "bpush-lint:", err)
			return 2
		}
		g := analysis.FlowGraph(pkgs)
		for _, p := range selected {
			fmt.Fprint(out, g.DOT(p.Path))
		}
		return 0
	}

	selected, err := match(pkgs, patterns)
	if err != nil {
		fmt.Fprintln(errOut, "bpush-lint:", err)
		return 2
	}

	// The whole module is always analyzed; the patterns scope which
	// findings are reported. Whole-program analyzers need the full graph
	// regardless of what the user asked about.
	diags := analysis.RunAnalyzers(suite, pkgs, analysis.DefaultConfig())
	diags = filterDiags(diags, selected)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(errOut, "bpush-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, rel(d))
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "%d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// filterSuite keeps the analyzers named in the comma-separated spec;
// an unknown name is a usage error listing the valid set.
func filterSuite(suite []*analysis.Analyzer, spec string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	var valid []string
	for _, a := range suite {
		byName[a.Name] = a
		valid = append(valid, a.Name)
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers (valid: %s)", strings.Join(valid, ", "))
	}
	return out, nil
}

// filterDiags keeps findings positioned in the selected packages'
// directories. Position-less config findings always survive: a root
// spec that matches nothing is broken no matter what was asked about.
func filterDiags(diags []analysis.Diagnostic, selected []*analysis.Package) []analysis.Diagnostic {
	dirs := map[string]bool{}
	for _, p := range selected {
		dirs[p.Dir] = true
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.File == "<config>" || dirs[filepath.Dir(d.File)] {
			out = append(out, d)
		}
	}
	return out
}

// match filters loaded packages by ./dir and ./dir/... patterns,
// resolved against the current directory.
func match(pkgs []*analysis.Package, patterns []string) ([]*analysis.Package, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		abs, err := filepath.Abs(filepath.Join(cwd, pat))
		if err != nil {
			return nil, err
		}
		found := false
		for _, p := range pkgs {
			if p.Dir == abs || (recursive && strings.HasPrefix(p.Dir+string(filepath.Separator), abs+string(filepath.Separator))) {
				keep[p.Path] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		if keep[p.Path] {
			out = append(out, p)
		}
	}
	return out, nil
}

// rel shortens a diagnostic's file path relative to the working
// directory for readable terminal output.
func rel(d analysis.Diagnostic) string {
	if cwd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(r, "..") {
			d.File = r
		}
	}
	return d.String()
}
