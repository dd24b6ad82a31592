package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(context.Background(), args, &b)
	return b.String(), err
}

func TestGridSingleArchitecture(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Architecture 1") || !strings.Contains(out, "confidentiality") {
		t.Fatalf("out = %q", out)
	}
	if strings.Count(out, "Architecture 1") != 9 {
		t.Fatalf("expected 9 grid rows:\n%s", out)
	}
}

func TestGridCSV(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "architecture,category,protection") {
		t.Fatalf("csv header missing: %q", out)
	}
}

func TestArchFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	data, err := arch.Architecture2().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "-arch", path, "-category", "availability",
		"-prop", `P=? [ F<=1 "violated" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Architecture 2:") {
		t.Fatalf("out = %q", out)
	}
}

func TestPropertyMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-category", "availability",
		"-prop", `S=? [ "violated" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "S=?") {
		t.Fatalf("out = %q", out)
	}
}

func TestExportPRISM(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:3", "-export-prism",
		"-category", "confidentiality", "-protection", "aes128")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ctmc", "module", `label "violated"`, `rewards "violated_time"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q", want)
		}
	}
}

func TestComponentsMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-components", "-category", "availability")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "component") || !strings.Contains(out, "NET") {
		t.Fatalf("out = %q", out)
	}
}

func TestAttackPathMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-attack-path", "-category", "availability")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exploit interface 3G_NET") {
		t.Fatalf("out = %q", out)
	}
}

func TestDOTMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "graph architecture") {
		t.Fatalf("out = %q", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-arch", "does-not-exist.json"},
		{"-arch", "builtin:1", "-category", "bogus", "-prop", "S=? [\"violated\"]"},
		{"-arch", "builtin:1", "-protection", "bogus", "-prop", "S=? [\"violated\"]"},
		{"-arch", "builtin:1", "-prop", "garbage"},
		{"-unknown-flag"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}

func TestLiteralPatchGuardChangesNumbers(t *testing.T) {
	a, err := runCapture(t, "-arch", "builtin:3", "-csv", "-nmax", "1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCapture(t, "-arch", "builtin:3", "-csv", "-nmax", "1", "-literal-patch-guard")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("literal patch guard produced identical output")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

func TestCriticalMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:3", "-critical", "-category", "availability", "-nmax", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "guardian:FR") || !strings.Contains(out, "YES") {
		t.Fatalf("out = %q", out)
	}
}

func TestUncertaintyMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-uncertainty", "-category", "availability", "-nmax", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P95") || !strings.Contains(out, "Architecture 1") {
		t.Fatalf("out = %q", out)
	}
}

func TestJSONMode(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:1", "-json", "-nmax", "1")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["architecture"] != "Architecture 1" {
		t.Fatalf("row = %v", rows[0])
	}
	if _, ok := rows[0]["exploitable_time"].(float64); !ok {
		t.Fatalf("exploitable_time missing: %v", rows[0])
	}
}

func TestTraceAndManifestFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.jsonl")
	manifest := filepath.Join(dir, "manifest.json")
	if _, err := runCapture(t, "-arch", "builtin:1", "-nmax", "1",
		"-trace", trace, "-manifest", manifest); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 10 {
		t.Fatalf("trace implausibly short: %d lines", len(lines))
	}
	// Every span the pipeline promises must appear, parented into one tree:
	// analysis root → transform/explore/solvers.
	spanNames := map[string]bool{}
	parents := map[string]uint64{}
	ids := map[uint64]bool{}
	for _, ln := range lines[:len(lines)-1] {
		var e struct {
			Kind   string `json:"kind"`
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("decode %q: %v", ln, err)
		}
		if e.Kind != "span" {
			continue
		}
		spanNames[e.Name] = true
		parents[e.Name] = e.Parent
		ids[e.ID] = true
	}
	for _, want := range []string{"core.analyze_all", "core.analyze", "transform.build",
		"modular.explore", "ctmc.cumulative_reward", "ctmc.steadystate"} {
		if !spanNames[want] {
			t.Errorf("trace missing span %q (got %v)", want, spanNames)
		}
	}
	if p := parents["modular.explore"]; p == 0 || !ids[p] {
		t.Errorf("modular.explore not parented into the tree (parent %d)", parents["modular.explore"])
	}

	// Final line is the embedded manifest envelope.
	var envelope struct {
		Kind     string        `json:"kind"`
		Manifest *obs.Manifest `json:"manifest"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &envelope); err != nil {
		t.Fatalf("manifest line: %v", err)
	}
	if envelope.Kind != "manifest" || envelope.Manifest == nil {
		t.Fatalf("trace does not end in a manifest line: %q", lines[len(lines)-1])
	}

	// Standalone manifest file agrees on the essentials.
	mraw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatalf("manifest file: %v\n%s", err, mraw)
	}
	if m.Tool != "secanalyze" || m.Model.States == 0 || m.Model.Transitions == 0 {
		t.Fatalf("manifest incomplete: %+v", m)
	}
	var foundExplore bool
	for _, ph := range m.Phases {
		if ph.Name == "modular.explore" && ph.Seconds > 0 && ph.Count > 0 {
			foundExplore = true
		}
	}
	if !foundExplore {
		t.Fatalf("manifest lacks explore phase timing: %+v", m.Phases)
	}
}

func TestProgressFlag(t *testing.T) {
	// -progress writes to stderr; just confirm it does not disturb results
	// and that the analysis completes with the tracer installed.
	out, err := runCapture(t, "-arch", "builtin:1", "-nmax", "1", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Architecture 1") {
		t.Fatalf("out = %q", out)
	}
}
