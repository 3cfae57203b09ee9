package analysis

import (
	"strings"
	"testing"

	"bpush/internal/analysis/flow"
)

// The call-graph unit suite: built on the dettaintvirtual fixture, whose
// shape exercises every edge kind the graph promises — a static call, a
// devirtualized interface dispatch, and a closure edge.

func fixtureGraph(t *testing.T, name string) *flow.Graph {
	t.Helper()
	return FlowGraph([]*Package{loadFixture(t, name)})
}

func TestFlowLookupSpecs(t *testing.T) {
	g := fixtureGraph(t, "dettaintvirtual")
	tests := []struct {
		spec string
		want []string
	}{
		{"fix/dettaintvirtual.Run", []string{"fix/dettaintvirtual.Run"}},
		{"fix/dettaintvirtual.clockSink.Record", []string{"fix/dettaintvirtual.clockSink.Record"}},
		// An interface method spec expands to every module implementation.
		{"fix/dettaintvirtual.Sink.Record", []string{
			"fix/dettaintvirtual.clockSink.Record",
			"fix/dettaintvirtual.pureSink.Record",
		}},
		{"fix/dettaintvirtual.Sink.*", []string{
			"fix/dettaintvirtual.clockSink.Record",
			"fix/dettaintvirtual.pureSink.Record",
		}},
		{"fix/dettaintvirtual.clockSink.*", []string{"fix/dettaintvirtual.clockSink.Record"}},
		{"fix/dettaintvirtual.NoSuchFunc", nil},
		{"fix/nosuchpkg.Run", nil},
	}
	for _, tc := range tests {
		var got []string
		for _, n := range g.Lookup(tc.spec) {
			got = append(got, n.ID)
		}
		if len(got) != len(tc.want) {
			t.Errorf("Lookup(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("Lookup(%q)[%d] = %s, want %s", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

func TestFlowEdgeKinds(t *testing.T) {
	g := fixtureGraph(t, "dettaintvirtual")
	kindOf := func(caller, callee string) (flow.EdgeKind, bool) {
		n := nodeByID(g, caller)
		if n == nil {
			t.Fatalf("no node %q", caller)
		}
		for _, e := range n.Out {
			if e.Callee.ID == callee {
				return e.Kind, true
			}
		}
		return 0, false
	}
	tests := []struct {
		caller, callee string
		kind           flow.EdgeKind
	}{
		{"fix/dettaintvirtual.Run", "fix/dettaintvirtual.viaClosure", flow.KindStatic},
		{"fix/dettaintvirtual.Run", "fix/dettaintvirtual.clockSink.Record", flow.KindDynamic},
		{"fix/dettaintvirtual.Run", "fix/dettaintvirtual.pureSink.Record", flow.KindDynamic},
		{"fix/dettaintvirtual.viaClosure", "fix/dettaintvirtual.viaClosure$lit1", flow.KindClosure},
	}
	for _, tc := range tests {
		k, ok := kindOf(tc.caller, tc.callee)
		if !ok {
			t.Errorf("no edge %s -> %s", tc.caller, tc.callee)
			continue
		}
		if k != tc.kind {
			t.Errorf("edge %s -> %s has kind %v, want %v", tc.caller, tc.callee, k, tc.kind)
		}
	}
}

func TestFlowReachDepthAndPath(t *testing.T) {
	g := fixtureGraph(t, "dettaintvirtual")
	reach := g.Reach(g.Lookup("fix/dettaintvirtual.Run"))
	depths := map[string]int{
		"fix/dettaintvirtual.Run":              0,
		"fix/dettaintvirtual.clockSink.Record": 1,
		"fix/dettaintvirtual.pureSink.Record":  1,
		"fix/dettaintvirtual.viaClosure":       1,
		"fix/dettaintvirtual.viaClosure$lit1":  2,
	}
	for id, want := range depths {
		n := nodeByID(g, id)
		if n == nil {
			t.Fatalf("no node %q", id)
		}
		if d := reach.Depth(n); d != want {
			t.Errorf("Depth(%s) = %d, want %d", id, d, want)
		}
	}
	lit := nodeByID(g, "fix/dettaintvirtual.viaClosure$lit1")
	got := flow.PathString(reach.Path(lit), "")
	want := "fix/dettaintvirtual.Run -> fix/dettaintvirtual.viaClosure -> fix/dettaintvirtual.viaClosure$lit1"
	if got != want {
		t.Errorf("PathString = %q, want %q", got, want)
	}
	trimmed := flow.PathString(reach.Path(lit), "fix/dettaintvirtual.")
	if trimmed != "Run -> viaClosure -> viaClosure$lit1" {
		t.Errorf("trimmed PathString = %q", trimmed)
	}
	if reach.Depth(nodeByID(g, "fix/dettaintvirtual.Sink.Record")) != -1 {
		t.Error("abstract interface method should not be a graph node with a depth")
	}
}

// TestFlowDeterminism pins the graph's reproducibility promise: two
// independent builds over the same package render byte-identical DOT.
func TestFlowDeterminism(t *testing.T) {
	pkg := loadFixture(t, "dettaintvirtual")
	a := FlowGraph([]*Package{pkg}).DOT("fix/dettaintvirtual")
	b := FlowGraph([]*Package{pkg}).DOT("fix/dettaintvirtual")
	if a != b {
		t.Errorf("two builds render different DOT:\n%s\n---\n%s", a, b)
	}
	if !strings.HasPrefix(a, "digraph") {
		t.Errorf("DOT output does not start with digraph: %q", a)
	}
	for _, want := range []string{
		`"fix/dettaintvirtual.Run" -> "fix/dettaintvirtual.clockSink.Record"`,
		`label="dyn"`,
		`label="closure"`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("DOT output missing %q:\n%s", want, a)
		}
	}
}
