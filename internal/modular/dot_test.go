package modular

import (
	"strings"
	"testing"
)

func TestExportDOT(t *testing.T) {
	m, x := buildBirthDeath(t, 2, 1, 2)
	m.SetLabel("busy", Gt(x, IntLit(0)))
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dot, err := ex.ExportDOT("busy")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph ctmc",
		"s0 [",
		"penwidth=2",            // initial state marked
		"fillcolor=\"#f4cccc\"", // highlighted label states
		"s0 -> s1",
		"label=\"1\"",
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestExportDOTNoHighlight(t *testing.T) {
	m, _ := buildBirthDeath(t, 1, 1, 1)
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dot, err := ex.ExportDOT("")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dot, "fillcolor") {
		t.Fatal("unexpected highlighting")
	}
}

func TestExportDOTUnknownLabel(t *testing.T) {
	m, _ := buildBirthDeath(t, 1, 1, 1)
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExportDOT("nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
}
