package main

import (
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

func TestPatchSweep(t *testing.T) {
	out, err := runCapture(t, "-param", "patch", "-from", "1", "-to", "100", "-points", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rate (1/a)") {
		t.Fatalf("out = %q", out)
	}
	if !strings.Contains(out, "crosses") && !strings.Contains(out, "never crosses") {
		t.Fatalf("threshold report missing: %q", out)
	}
	if !strings.Contains(out, "cache: solves=") || !strings.Contains(out, "hit-rate=") {
		t.Fatalf("cache report missing: %q", out)
	}
}

func TestExploitSweepCSV(t *testing.T) {
	out, err := runCapture(t, "-param", "exploit", "-from", "1", "-to", "10",
		"-points", "3", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "rate (1/a),exploitable time") {
		t.Fatalf("csv header missing: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 4 {
		t.Fatalf("rows missing: %q", out)
	}
}

func TestDifferentECU(t *testing.T) {
	out, err := runCapture(t, "-arch", "builtin:2", "-ecu", "GW", "-param", "patch",
		"-from", "1", "-to", "50", "-points", "3", "-category", "availability")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty output")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-param", "bogus"},
		{"-arch", "missing.json"},
		{"-ecu", "nope", "-points", "2"},
		{"-from", "10", "-to", "1"},
		{"-category", "bogus"},
		{"-protection", "bogus"},
		{"-param", "exploit", "-bus", "nope", "-points", "2"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}

func TestSweepTraceEmitsProgress(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := runCapture(t, "-points", "3", "-from", "1", "-to", "100",
		"-trace", trace); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var batchSpans, progress int
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e struct {
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			Total int64  `json:"total"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("decode %q: %v", ln, err)
		}
		switch {
		case e.Kind == "span" && e.Name == "service.batch":
			batchSpans++
		case e.Kind == "progress" && e.Name == "service.batch" && e.Total == 3:
			progress++
		}
	}
	if batchSpans != 1 || progress == 0 {
		t.Fatalf("sweep trace: %d service.batch spans, %d progress events\n%s", batchSpans, progress, raw)
	}
}
