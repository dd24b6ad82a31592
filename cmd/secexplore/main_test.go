package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(context.Background(), args, &b)
	return b.String(), err
}

func TestDefaultExploration(t *testing.T) {
	out, err := runCapture(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"m=unencrypted", "m=CMAC128", "m=AES128",
		"confidentiality", "cost", "strategy=exhaustive", "hit-rate="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hit-rate=0.00%") {
		t.Fatalf("expected a warm cache, got:\n%s", out)
	}
}

func TestJSONFront(t *testing.T) {
	out, err := runCapture(t, "-json", "-categories", "confidentiality")
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(out, "strategy=")
	var front struct {
		Objectives []string `json:"objectives"`
		Points     []struct {
			Label  string             `json:"label"`
			Values map[string]float64 `json:"values"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(head), &front); err != nil {
		t.Fatalf("front JSON: %v\n%s", err, out)
	}
	if len(front.Objectives) != 2 || front.Objectives[1] != "cost" {
		t.Fatalf("objectives = %v", front.Objectives)
	}
	if len(front.Points) == 0 {
		t.Fatalf("empty front:\n%s", out)
	}
}

func TestResultsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cands.jsonl")
	if _, err := runCapture(t, "-results", path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var cand struct {
			Key        string    `json:"key"`
			Label      string    `json:"label"`
			Objectives []float64 `json:"objectives"`
		}
		if err := json.Unmarshal(sc.Bytes(), &cand); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if cand.Key == "" || cand.Label == "" || len(cand.Objectives) != 4 {
			t.Fatalf("line %d incomplete: %+v", lines+1, cand)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("candidates streamed = %d, want 3", lines)
	}
}

func TestManifestReportsHitRate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if _, err := runCapture(t, "-manifest", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Gauges["explore.cache_hit_rate"] <= 0 {
		t.Fatalf("manifest gauge explore.cache_hit_rate = %v, want > 0\n%s",
			m.Gauges["explore.cache_hit_rate"], raw)
	}
	if m.Counters["explore.candidates"] != 3 || m.Counters["explore.cells"] != 9 {
		t.Fatalf("manifest counters = %v", m.Counters)
	}
}

func TestRandomSeedDeterministic(t *testing.T) {
	// One worker: with more, whether a repeated cell is a cache hit or
	// joins the in-flight solve depends on scheduling, and the summary
	// line reports that split.
	args := []string{"-strategy", "random", "-seed", "42", "-samples", "2", "-workers", "1"}
	out1, err := runCapture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCapture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("runs differ:\n%s\n---\n%s", out1, out2)
	}
}

func TestBeamStrategy(t *testing.T) {
	out, err := runCapture(t, "-strategy", "beam", "-seed", "7", "-beam-width", "2",
		"-generations", "2", "-categories", "integrity")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy=beam") {
		t.Fatalf("out = %q", out)
	}
}

func TestSpaceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.json")
	spec := `{
  "messages": [{"message": "m", "protections": ["unencrypted", "AES128"]}],
  "patch_levels": [{"ecu": "3G", "levels": ["A", "QM"]}],
  "costs": {"protection": {"AES128": 3}}
}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "-space", path, "-categories", "confidentiality")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "space=4") {
		t.Fatalf("expected 2×2 space: %q", out)
	}
	if !strings.Contains(out, "3G=") {
		t.Fatalf("patch axis missing from labels: %q", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-strategy", "bogus"},
		{"-arch", "missing.json"},
		{"-categories", "bogus"},
		{"-space", "missing.json"},
		{"-max-candidates", "1"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}
