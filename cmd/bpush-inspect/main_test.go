package main

import (
	"os"
	"strings"
	"testing"
)

func TestSizingOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sizing", "-u", "50", "-span", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"invalidation-only", "multiversion-overflow", "sgt", "% of broadcast", "0.83%"} {
		if !strings.Contains(got, want) {
			t.Errorf("sizing output missing %q:\n%s", want, got)
		}
	}
}

func TestLayoutOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-db", "12", "-versions", "3", "-updates", "3", "-cycles", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"becast of cycle5", "invalidation report:", "SG delta:", "data segment:", "slot   0"} {
		if !strings.Contains(got, want) {
			t.Errorf("layout output missing %q:\n%s", want, got)
		}
	}
}

// TestLayoutGolden pins the default-flag layout byte for byte: the
// becast of cycle 6 at D=20, S=3, seed 1.
func TestLayoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/layout_default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("default layout differs from testdata/layout_default.golden:\n%s", got)
	}
}

func TestLayoutDeterministicPerSeed(t *testing.T) {
	render := func() string {
		var out strings.Builder
		if err := run([]string{"-db", "10", "-cycles", "3", "-seed", "5"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if render() != render() {
		t.Error("layout not deterministic for a fixed seed")
	}
}

func TestRejectsBadConfig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-db", "0"}, &out); err == nil {
		t.Error("zero db accepted")
	}
	if err := run([]string{"-versions", "0"}, &out); err == nil {
		t.Error("zero versions accepted")
	}
	if err := run([]string{"-cycles", "-1"}, &out); err == nil {
		t.Error("negative cycle count accepted")
	}
}
