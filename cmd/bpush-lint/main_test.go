package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpush/internal/analysis"
)

// chdirModuleRoot moves the test into the module root (where go.mod
// lives), which is where bpush-lint expects to run, and restores the
// working directory afterwards.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(wd, "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found from %s: %v", wd, err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestRunRepoClean is the acceptance gate: the CLI over the real module
// exits 0 with no output.
func TestRunRepoClean(t *testing.T) {
	chdirModuleRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errOut.String(), out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run must print nothing, got:\n%s", out.String())
	}
}

func TestRunJSONClean(t *testing.T) {
	chdirModuleRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "./internal/wire"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic list: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Fatalf("expected no findings, got %v", diags)
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	for _, a := range analysis.Suite() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out.String())
		}
	}
}

// TestRunFilterSubset pins the -run flag: a valid subset over the clean
// module exits 0, and the other analyzers' suppressions are not flagged
// as stale.
func TestRunFilterSubset(t *testing.T) {
	chdirModuleRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "dettaint,lockorder", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errOut.String(), out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean subset run must print nothing, got:\n%s", out.String())
	}
}

// TestRunFilterUnknown pins the usage error: an unknown analyzer name
// exits 2 and names the valid set.
func TestRunFilterUnknown(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "nosuch", "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") || !strings.Contains(errOut.String(), "dettaint") {
		t.Errorf("stderr should name the unknown analyzer and the valid set, got %q", errOut.String())
	}
}

// TestRunGraphDump pins the -graph flag: a DOT digraph on stdout, exit 0,
// and byte-identical output across two invocations.
func TestRunGraphDump(t *testing.T) {
	chdirModuleRoot(t)
	var out1, out2, errOut bytes.Buffer
	if code := run([]string{"-graph", "./internal/det"}, &out1, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.HasPrefix(out1.String(), "digraph") {
		t.Fatalf("-graph output is not DOT:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "bpush/internal/det.SortedKeys") {
		t.Errorf("-graph output missing the package's own nodes:\n%s", out1.String())
	}
	if code := run([]string{"-graph", "./internal/det"}, &out2, &errOut); code != 0 {
		t.Fatalf("second run exit %d, stderr %q", code, errOut.String())
	}
	if out1.String() != out2.String() {
		t.Error("-graph output differs between two runs over the same module")
	}
}

// TestRunGraphBadPattern pins the -graph failure mode: an unmatched
// package pattern is a usage error.
func TestRunGraphBadPattern(t *testing.T) {
	chdirModuleRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-graph", "./no/such/dir"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unmatched -graph pattern, want 2 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "matches no packages") {
		t.Errorf("stderr should name the unmatched pattern, got %q", errOut.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	chdirModuleRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unmatched pattern, want 2 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "matches no packages") {
		t.Errorf("stderr should name the unmatched pattern, got %q", errOut.String())
	}
}

// TestDesignCataloguesEveryAnalyzer keeps DESIGN.md's lint catalogue in
// step with the suite: every analyzer's name must appear, backticked, in
// the "Enforced invariants (bpush-lint)" section.
func TestDesignCataloguesEveryAnalyzer(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Enforced invariants (bpush-lint)\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Enforced invariants (bpush-lint)" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, a := range analysis.Suite() {
		if !strings.Contains(section, "`"+a.Name+"`") {
			t.Errorf("DESIGN.md's bpush-lint section never names `%s`", a.Name)
		}
	}
}
