// Package analysis is a small static-analysis framework, built on the
// standard library's go/ast, go/parser, go/token and go/types only, plus
// the analyzer suite that encodes this repository's engineering
// invariants (determinism, wire-buffer aliasing, goroutine ownership,
// error hygiene). The cmd/bpush-lint CLI loads the module, runs every
// analyzer, and reports findings; CI runs it as a required gate.
//
// The framework is deliberately minimal: an Analyzer is a named Run
// function over one type-checked package (a Pass) or a RunModule
// function over the whole module and its call graph (a ModulePass),
// diagnostics carry file:line positions, and `//lint:allow <analyzer>
// <reason>` comments suppress a finding on the same or the following
// line. Suppressions without a written reason are themselves
// diagnostics — the policy is that every deviation from an invariant is
// justified in the code.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bpush/internal/analysis/flow"
	"bpush/internal/det"
)

// An Analyzer checks one invariant over a package or the whole module.
type Analyzer struct {
	// Name identifies the analyzer in reports and in //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run reports findings on the pass via pass.Reportf. Exactly one of
	// Run and RunModule is set.
	Run func(*Pass)
	// RunModule reports findings over the whole module at once, with
	// the call graph available — the whole-program analyzers (dettaint,
	// hotalloc, lockorder) chase invariants across package boundaries.
	RunModule func(*ModulePass)
}

// Config scopes the suite's invariants. Paths are import paths;
// prefixes end the comparison at a path-segment boundary.
type Config struct {
	// DeterministicRoots lists the entry points whose full transitive
	// call trees must be pure functions of their inputs: no wall-clock
	// reads, no global randomness, no map-iteration order escaping into
	// results. Specs take the forms "pkgpath.Func",
	// "pkgpath.Type.Method", and "pkgpath.Type.*"; a spec naming a
	// module interface expands to every module implementation, so
	// "bpush/internal/core.Scheme.*" roots all five schemes' per-cycle
	// entries at once. The dettaint analyzer propagates the invariant
	// through the call graph — a helper is covered exactly when some
	// entry point reaches it.
	DeterministicRoots []string
	// GoroutineScope lists import-path prefixes where naked go
	// statements are banned (goroutine lifecycle must live in the
	// packages listed in GoroutineAllow).
	GoroutineScope []string
	// GoroutineAllow lists the exact import paths exempt from the
	// goroutine ban — the packages that own goroutine lifecycle.
	GoroutineAllow []string
	// ErrcheckScope lists the exact import paths where silently
	// discarded error returns are banned.
	ErrcheckScope []string
	// SleepScope lists the exact import paths where time.Sleep (and
	// timer construction) is banned. These are packages whose
	// *liveness* must not depend on real time — the server's deadlock
	// backoff yields to the scheduler instead of sleeping, so commit
	// progress is driven by the lock holders running, not by elapsed
	// wall time.
	SleepScope []string
	// ClockScope lists the exact import paths where wall-clock reads
	// (time.Now, time.Since, time.Until) are banned everywhere except
	// inside the functions named by ClockEntry. This pins the clock seam
	// of the observability layer: real time enters through one sanctioned
	// constructor and travels as plain int64s from there.
	ClockScope []string
	// ClockEntry lists the fully-qualified functions ("pkgpath.Func" or
	// "pkgpath.Type.Method") allowed to read the wall clock inside
	// ClockScope packages.
	ClockEntry []string
	// LockOrderScope lists the exact import paths whose mutexes are
	// subject to the lockorder analyzer: every pair of locks must be
	// acquired in one consistent order, module-wide.
	LockOrderScope []string
	// LockHoldScope lists the exact import paths whose locks
	// additionally ban blocking operations while held: no channel send
	// or receive outside a select-with-default, no select without a
	// default, no blocking wait — a slow subscriber must never be able
	// to stall the broadcast fan-out tier from inside a shard or
	// station lock.
	LockHoldScope []string
	// AliasingScope lists import-path prefixes subject to the []byte
	// retention check; empty means every package.
	AliasingScope []string
	// ImmutableBytes lists fully-qualified named types with underlying
	// []byte (e.g. "bpush/internal/netcast.Frame") whose values are
	// immutable by contract. Immutability replaces copying: parameters
	// of these types are exempt from the retention check (retaining a
	// buffer nobody mutates is safe — the sharded broadcaster shares one
	// frame across every subscriber queue this way), and in exchange
	// every mutation of such a value (element assignment, in-place
	// append) is a finding, as is converting a caller-owned []byte into
	// the type outside its declaring package (sealing is only audited at
	// the owner's constructor seam).
	ImmutableBytes []string
}

// DefaultConfig returns the repository's enforced invariant scopes.
func DefaultConfig() Config {
	return Config{
		// Determinism is rooted at the entry points a same-seed replay
		// enters through; dettaint propagates it through the call graph
		// (closures, interface devirtualization included), so helper
		// packages — det, zipf, stats, workload, sg, broadcast, obs
		// sinks — are covered by reachability instead of by listing.
		DeterministicRoots: []string{
			// Simulation: a run is a pure function of (seed, plan).
			"bpush/internal/sim.Run",
			"bpush/internal/sim.RunFleet",
			"bpush/internal/experiments.AllFigures",
			// Producer: one memoized cycle log, byte-identical at every
			// worker count; consumers replay it through Feed cursors.
			"bpush/internal/cyclesource.New",
			"bpush/internal/cyclesource.Source.*",
			"bpush/internal/cyclesource.Feed.*",
			// The durable cycle log: record framing and recovery are a
			// pure function of the bytes on disk (os.ReadDir returns a
			// sorted listing), so a resumed producer replays the exact
			// stream. Rooted explicitly in case a caller bypasses the
			// source and opens a log directly.
			"bpush/internal/durlog.Open",
			"bpush/internal/durlog.Log.*",
			// The commit pipeline must emit byte-identical cycle logs at
			// every worker count, so it is rooted explicitly.
			"bpush/internal/server.Server.*",
			// Client consumption: every scheme's per-cycle entries (the
			// interface spec expands to all implementations) plus the
			// query loop driving them.
			"bpush/internal/core.New",
			"bpush/internal/core.Scheme.*",
			"bpush/internal/client.New",
			"bpush/internal/client.NewFromEvents",
			"bpush/internal/client.Client.*",
			// Channel-side fault injection: same plan + seed, same
			// damage on the wire.
			"bpush/internal/fault.NewMangler",
			"bpush/internal/fault.Mangler.*",
			// Observability renders: traces and metric snapshots are
			// specified to be byte-identical across same-seed runs.
			"bpush/internal/obs.Registry.*",
			"bpush/internal/obs.Ring.*",
			"bpush/internal/obs.Recorder.Record",
			// Offline quantile recompute: bpush-inspect lag promises the
			// exact numbers /statusz showed, so the snapshot restore path
			// must be as deterministic as the live histograms.
			"bpush/internal/obs.HistogramSnapshot.*",
			// The lint tool itself: two runs over one module must
			// produce identical bytes (CI compares them).
			"bpush/internal/analysis.Load",
			"bpush/internal/analysis.LoadDir",
			"bpush/internal/analysis.Suite",
			"bpush/internal/analysis.RunAnalyzers",
			"bpush/internal/analysis.FlowGraph",
		},
		GoroutineScope: []string{"bpush/internal"},
		GoroutineAllow: []string{"bpush/internal/pool", "bpush/internal/netcast"},
		// durlog joins the strict error-check scope: a swallowed fsync,
		// truncate, or read error on the durable log is a silent
		// durability hole, exactly the class errcheck exists to catch.
		ErrcheckScope: []string{"bpush/internal/wire", "bpush/internal/netcast", "bpush/internal/durlog"},
		// The commit pipeline must stay sleep-free, so cycle production
		// never paces itself on the wall clock.
		SleepScope: []string{"bpush/internal/server"},
		// The observability layer owns the clock seam: obs.WallSampler is
		// the only function allowed to touch time.Now, so span
		// measurement cannot grow a second clock source that the
		// deterministic roots would silently reach.
		ClockScope: []string{"bpush/internal/obs"},
		ClockEntry: []string{"bpush/internal/obs.WallSampler"},
		// The fan-out tier and the worker pool it leans on must keep
		// one global lock order, and nothing may block inside a shard
		// or station lock.
		LockOrderScope: []string{
			"bpush/internal/netcast",
			"bpush/internal/pool",
		},
		LockHoldScope: []string{"bpush/internal/netcast"},
		// netcast.Frame is the zero-copy broadcast frame: one immutable
		// buffer per cycle, shared by every subscriber queue.
		ImmutableBytes: []string{"bpush/internal/netcast.Frame"},
	}
}

func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func containsPath(paths []string, path string) bool {
	for _, p := range paths {
		if p == path {
			return true
		}
	}
	return false
}

func containsPrefix(prefixes []string, path string) bool {
	for _, p := range prefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// SleepBanned reports whether path bans time.Sleep and timer
// construction.
func (c Config) SleepBanned(path string) bool { return containsPath(c.SleepScope, path) }

// ClockScoped reports whether path bans wall-clock reads outside the
// ClockEntry functions.
func (c Config) ClockScoped(path string) bool { return containsPath(c.ClockScope, path) }

// LockOrdered reports whether path's mutexes are subject to the
// lock-order analysis.
func (c Config) LockOrdered(path string) bool { return containsPath(c.LockOrderScope, path) }

// LockHoldChecked reports whether path's locks ban blocking operations
// while held.
func (c Config) LockHoldChecked(path string) bool { return containsPath(c.LockHoldScope, path) }

// GoroutineBanned reports whether naked go statements are banned in path.
func (c Config) GoroutineBanned(path string) bool {
	return containsPrefix(c.GoroutineScope, path) && !containsPath(c.GoroutineAllow, path)
}

// ErrcheckEnforced reports whether discarded errors are banned in path.
func (c Config) ErrcheckEnforced(path string) bool { return containsPath(c.ErrcheckScope, path) }

// AliasingEnforced reports whether the []byte retention check applies.
func (c Config) AliasingEnforced(path string) bool {
	return len(c.AliasingScope) == 0 || containsPrefix(c.AliasingScope, path)
}

// ImmutableBytesType reports whether the fully-qualified type name
// (pkgpath.Name) carries the immutable-bytes contract.
func (c Config) ImmutableBytesType(qualified string) bool {
	return containsPath(c.ImmutableBytes, qualified)
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// A Pass hands one type-checked package to an analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info
	Files    []*ast.File

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ModulePass hands the whole loaded module and its call graph to a
// module-level analyzer's RunModule.
type ModulePass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *flow.Graph

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportconf records a position-less configuration finding (an entry
// point spec that resolves to nothing, say); it sorts ahead of every
// real file.
func (p *ModulePass) Reportconf(format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     "<config>",
		Message:  fmt.Sprintf(format, args...),
	})
}

// FlowGraph builds the call graph of the loaded packages — the same
// graph RunAnalyzers hands to module-level analyzers, exposed for the
// CLI's -graph dump and for tests.
func FlowGraph(pkgs []*Package) *flow.Graph {
	fps := make([]*flow.Package, len(pkgs))
	for i, p := range pkgs {
		fps[i] = &flow.Package{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
	}
	return flow.Build(fps)
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line     int // line the directive is written on
	analyzer string
	reason   string
	used     bool
}

const allowPrefix = "//lint:allow"

// parseAllows collects the //lint:allow directives of a file, keyed
// nowhere — matching is by line. Directives with a missing analyzer or
// reason are reported immediately (the suppression policy requires a
// written reason).
func parseAllows(fset *token.FileSet, file *ast.File, report func(Diagnostic)) []*allowDirective {
	var out []*allowDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if name == "" || reason == "" {
				report(Diagnostic{
					Analyzer: "lint",
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  "malformed suppression: want //lint:allow <analyzer> <reason>",
				})
				continue
			}
			out = append(out, &allowDirective{line: pos.Line, analyzer: name, reason: reason})
		}
	}
	return out
}

// Suite is the full analyzer set run by bpush-lint.
func Suite() []*Analyzer {
	return []*Analyzer{
		DetTaintAnalyzer(),
		HotAllocAnalyzer(),
		LockOrderAnalyzer(),
		SleepAnalyzer(),
		ClockEntryAnalyzer(),
		BufAliasAnalyzer(),
		GoroutineAnalyzer(),
		ErrcheckAnalyzer(),
	}
}

// RunAnalyzers applies the analyzers to every package and returns the
// surviving diagnostics sorted by (file, line, col, analyzer) — stable
// output for a tool whose own repo bans nondeterminism. Findings covered
// by a //lint:allow directive (same line or the line directly above) are
// dropped; unused directives are reported so stale suppressions cannot
// accumulate.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	allowsByFile := map[string][]*allowDirective{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			pos := pkg.Fset.Position(f.Package)
			ds := parseAllows(pkg.Fset, f, collect)
			allowsByFile[pos.Filename] = append(allowsByFile[pos.Filename], ds...)
		}
	}

	suppressed := func(d Diagnostic) bool {
		for _, a := range allowsByFile[d.File] {
			if a.analyzer == d.Analyzer && (a.line == d.Line || a.line == d.Line-1) {
				a.used = true
				return true
			}
		}
		return false
	}

	report := func(d Diagnostic) {
		if !suppressed(d) {
			collect(d)
		}
	}
	for _, pkg := range pkgs {
		for _, an := range analyzers {
			if an.Run == nil {
				continue
			}
			an.Run(&Pass{
				Analyzer: an,
				Config:   cfg,
				Fset:     pkg.Fset,
				PkgPath:  pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Files:    pkg.Files,
				report:   report,
			})
		}
	}

	// Module-level analyzers share one call graph, built lazily so a
	// per-package-only run pays nothing for it.
	var graph *flow.Graph
	for _, an := range analyzers {
		if an.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = FlowGraph(pkgs)
		}
		an.RunModule(&ModulePass{
			Analyzer: an,
			Config:   cfg,
			Fset:     graph.Fset(),
			Pkgs:     pkgs,
			Graph:    graph,
			report:   report,
		})
	}

	// A suppression is only "unused" when its analyzer actually ran —
	// a -run subset must not flag the other analyzers' allows as stale.
	ran := map[string]bool{}
	for _, an := range analyzers {
		ran[an.Name] = true
	}
	for _, file := range det.SortedKeys(allowsByFile) {
		for _, a := range allowsByFile[file] {
			if !a.used && ran[a.analyzer] {
				collect(Diagnostic{
					Analyzer: "lint",
					File:     file,
					Line:     a.line,
					Col:      1,
					Message:  fmt.Sprintf("unused suppression for %q (reason: %s)", a.analyzer, a.reason),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
