package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bpush/internal/analysis/flow"
)

// Fixture tests: each directory under testdata/src is type-checked as its
// own package ("fix/<name>") and run through the full Suite with a
// fixture-specific Config. Expected findings are `// want "substring"`
// annotations on the line the diagnostic lands on; the harness fails on
// both unexpected diagnostics and unmet wants.

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantDiag struct {
	substr  string
	matched bool
}

// collectWants extracts the // want annotations of a fixture package,
// keyed by file base name and line.
func collectWants(pkg *Package) map[string]map[int][]*wantDiag {
	wants := map[string]map[int][]*wantDiag{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					file := filepath.Base(pos.Filename)
					if wants[file] == nil {
						wants[file] = map[int][]*wantDiag{}
					}
					wants[file][pos.Line] = append(wants[file][pos.Line], &wantDiag{substr: m[1]})
				}
			}
		}
	}
	return wants
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), "fix/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

func runFixture(t *testing.T, name string, cfg Config) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags := RunAnalyzers(Suite(), []*Package{pkg}, cfg)
	wants := collectWants(pkg)
	for _, d := range diags {
		ws := wants[filepath.Base(d.File)][d.Line]
		found := false
		for _, w := range ws {
			if !w.matched && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: want diagnostic containing %q, got none", file, line, w.substr)
				}
			}
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"dettaint", Config{DeterministicRoots: []string{"fix/dettaint.Run"}}},
		{"dettaintvirtual", Config{DeterministicRoots: []string{"fix/dettaintvirtual.Run"}}},
		{"hotalloc", Config{}}, // //lint:hotpath annotations are the roots
		{"lockorder", Config{
			LockOrderScope: []string{"fix/lockorder"},
			LockHoldScope:  []string{"fix/lockorder"},
		}},
		{"sleepban", Config{SleepScope: []string{"fix/sleepban"}}},
		{"clockentry", Config{
			ClockScope: []string{"fix/clockentry"},
			ClockEntry: []string{"fix/clockentry.WallSampler"},
		}},
		{"bufalias", Config{}}, // empty AliasingScope: the check applies everywhere
		{"bufaliasimmutable", Config{
			ImmutableBytes: []string{"fix/bufaliasimmutable.Frame"},
		}},
		{"bufaliasforeign", Config{
			ImmutableBytes: []string{"net.IP"},
		}},
		{"goroutines", Config{GoroutineScope: []string{"fix/goroutines"}}},
		{"errcheck", Config{ErrcheckScope: []string{"fix/errcheck"}}},
		{"clean", Config{
			DeterministicRoots: []string{
				"fix/clean.keys",
				"fix/clean.draw",
				"fix/clean.apply",
				"fix/clean.shutdown",
				"fix/clean.state.set",
			},
			GoroutineScope: []string{"fix"},
			ErrcheckScope:  []string{"fix/clean"},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { runFixture(t, tc.name, tc.cfg) })
	}
}

// TestGoroutineAllowList checks the scope arithmetic: the same fixture
// that trips the goroutine ban is clean when its path is on the allow
// list.
func TestGoroutineAllowList(t *testing.T) {
	pkg := loadFixture(t, "goroutines")
	cfg := Config{
		GoroutineScope: []string{"fix"},
		GoroutineAllow: []string{"fix/goroutines"},
	}
	if diags := RunAnalyzers([]*Analyzer{GoroutineAnalyzer()}, []*Package{pkg}, cfg); len(diags) != 0 {
		t.Errorf("allow-listed package got %d diagnostics: %v", len(diags), diags)
	}
}

// TestSuppressions pins the suppression policy: a justified directive on
// the same or previous line silences the finding; stale and reason-less
// directives are themselves findings. Expectations are explicit here
// because //lint:allow and // want cannot share a comment.
func TestSuppressions(t *testing.T) {
	pkg := loadFixture(t, "allow")
	cfg := Config{DeterministicRoots: []string{
		"fix/allow.suppressedAbove",
		"fix/allow.suppressedSameLine",
		"fix/allow.unsuppressed",
	}}
	diags := RunAnalyzers(Suite(), []*Package{pkg}, cfg)
	want := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{18, "dettaint", "time.Now on deterministic path"},
		{21, "lint", "unused suppression for \"dettaint\""},
		{24, "lint", "malformed suppression"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Line != w.line || d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.substr) {
			t.Errorf("diag %d = %s; want line %d analyzer %s containing %q", i, d, w.line, w.analyzer, w.substr)
		}
	}
}

// TestUnusedSuppressionScopedToRun pins the -run interaction: a
// directive for an analyzer that did not run is not "unused" — only the
// malformed-directive finding (parsed unconditionally) survives.
func TestUnusedSuppressionScopedToRun(t *testing.T) {
	pkg := loadFixture(t, "allow")
	diags := RunAnalyzers([]*Analyzer{HotAllocAnalyzer()}, []*Package{pkg}, Config{})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (malformed only):\n%v", len(diags), diags)
	}
	if d := diags[0]; d.Line != 24 || !strings.Contains(d.Message, "malformed suppression") {
		t.Errorf("diag = %s; want malformed suppression at line 24", d)
	}
}

// TestHotpathDirectives polices the //lint:hotpath annotation the same
// way TestSuppressions polices //lint:allow: a reason-less directive and
// a directive outside a doc comment are findings. Expectations are
// explicit because //lint and // want cannot share a line.
func TestHotpathDirectives(t *testing.T) {
	pkg := loadFixture(t, "hotpathdir")
	diags := RunAnalyzers([]*Analyzer{HotAllocAnalyzer()}, []*Package{pkg}, Config{})
	want := []struct {
		line   int
		substr string
	}{
		{6, "malformed hotpath annotation"},
		{10, "misplaced hotpath annotation"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Line != w.line || d.Analyzer != "hotalloc" || !strings.Contains(d.Message, w.substr) {
			t.Errorf("diag %d = %s; want line %d containing %q", i, d, w.line, w.substr)
		}
	}
}

// TestBadRootIsFinding pins the config hygiene rule: a deterministic
// root that resolves to nothing is itself a finding (file "<config>"),
// so a typo cannot silently shrink the enforced surface.
func TestBadRootIsFinding(t *testing.T) {
	pkg := loadFixture(t, "clean")
	cfg := Config{DeterministicRoots: []string{"fix/clean.NoSuchFunc"}}
	diags := RunAnalyzers([]*Analyzer{DetTaintAnalyzer()}, []*Package{pkg}, cfg)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%v", len(diags), diags)
	}
	d := diags[0]
	if d.File != "<config>" || !strings.Contains(d.Message, "matches no function in the module") {
		t.Errorf("diag = %s; want a <config> finding for the unresolved root", d)
	}
}

var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// loadModule loads the real module once for every test that needs it.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	moduleOnce.Do(func() {
		modulePkgs, moduleErr = Load(filepath.Join("..", ".."))
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	if len(modulePkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	return modulePkgs
}

// TestDefaultRootsResolve pins the default entry-point list against the
// real module: every spec must resolve, and the deterministic plane must
// still cover the helper tiers that used to be scoped by package —
// det's sorted walks, the obs render path, and every Scheme per-cycle
// entry via interface expansion.
func TestDefaultRootsResolve(t *testing.T) {
	pkgs := loadModule(t)
	g := FlowGraph(pkgs)
	cfg := DefaultConfig()
	var roots []*flow.Node
	for _, spec := range cfg.DeterministicRoots {
		nodes := g.Lookup(spec)
		if len(nodes) == 0 {
			t.Errorf("deterministic root %q matches no function", spec)
			continue
		}
		roots = append(roots, nodes...)
	}
	reach := g.Reach(roots)
	for _, id := range []string{
		"bpush/internal/det.SortedKeys",
		"bpush/internal/core.invOnly.NewCycle",
		"bpush/internal/core.sgt.NewCycle",
		"bpush/internal/core.mvCache.NewCycle",
		"bpush/internal/sg.Graph.Apply",
	} {
		n := g.Node(id)
		if n == nil {
			t.Errorf("no node %q in the module graph", id)
			continue
		}
		if !reach.Contains(n) {
			t.Errorf("deterministic plane does not reach %s (reached %d nodes)", id, len(reach.Nodes()))
		}
	}
}

// TestDefaultScopeBansServerSleep pins the server package into the
// sleep-banned scope: the commit path's deadlock backoff must yield to
// the scheduler, never pace itself on the wall clock.
func TestDefaultScopeBansServerSleep(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.SleepBanned("bpush/internal/server") {
		t.Error("bpush/internal/server not in the sleep-banned scope")
	}
	if cfg.SleepBanned("bpush/internal/serverless") {
		t.Error("sleep-scope path matching is not exact")
	}
}

// TestDefaultScopeLocksFanOut pins the fan-out tier into the lockorder
// scopes: netcast's locks keep one global order and ban blocking while
// held; the worker pool under it joins the ordering only.
func TestDefaultScopeLocksFanOut(t *testing.T) {
	cfg := DefaultConfig()
	for _, p := range []string{"bpush/internal/netcast", "bpush/internal/pool"} {
		if !cfg.LockOrdered(p) {
			t.Errorf("%s not in the lock-order scope", p)
		}
	}
	if !cfg.LockHoldChecked("bpush/internal/netcast") {
		t.Error("bpush/internal/netcast not in the lock-hold scope")
	}
	if cfg.LockHoldChecked("bpush/internal/pool") {
		t.Error("bpush/internal/pool must join the lock ordering but not be hold-checked")
	}
}

// TestDefaultScopeSealsNetcastFrame pins the zero-copy broadcast frame
// into the immutable-bytes contract: sharing a netcast.Frame without
// copying is legal precisely because every mutation of one is banned.
func TestDefaultScopeSealsNetcastFrame(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.ImmutableBytesType("bpush/internal/netcast.Frame") {
		t.Error("bpush/internal/netcast.Frame not declared immutable")
	}
	if cfg.ImmutableBytesType("bpush/internal/netcast.Frames") {
		t.Error("immutable type matching is not exact")
	}
}

// TestLintRepoClean is the gate the CLI enforces in CI, run as a plain
// test: the full suite over the real module must be silent.
func TestLintRepoClean(t *testing.T) {
	pkgs := loadModule(t)
	for _, d := range RunAnalyzers(Suite(), pkgs, DefaultConfig()) {
		t.Errorf("%s", d)
	}
}

// TestDiagnosticOrder pins the deterministic report order the tool
// promises: (file, line, col, analyzer), regardless of emission order.
func TestDiagnosticOrder(t *testing.T) {
	emit := []Diagnostic{
		{Analyzer: "b", File: "z.go", Line: 3, Col: 1},
		{Analyzer: "a", File: "a.go", Line: 9, Col: 2},
		{Analyzer: "a", File: "a.go", Line: 9, Col: 1},
		{Analyzer: "a", File: "a.go", Line: 2, Col: 5},
	}
	an := &Analyzer{Name: "order", Doc: "test", Run: func(p *Pass) {
		for _, d := range emit {
			p.report(d)
		}
	}}
	pkg := loadFixture(t, "clean")
	diags := RunAnalyzers([]*Analyzer{an}, []*Package{pkg}, Config{})
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col))
	}
	wantOrder := []string{"a.go:2:5", "a.go:9:1", "a.go:9:2", "z.go:3:1"}
	if len(got) != len(wantOrder) {
		t.Fatalf("got %v, want %v", got, wantOrder)
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], wantOrder[i], got)
		}
	}
}
