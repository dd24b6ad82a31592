package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
)

func runCapture(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(t.Context(), args, &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestGenerateToStdout(t *testing.T) {
	out, _, err := runCapture(t, "-ecus", "5", "-buses", "2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.FromJSON([]byte(out))
	if err != nil {
		t.Fatalf("output is not a valid architecture: %v", err)
	}
	if len(a.ECUs) != 5 {
		t.Fatalf("ECUs = %d", len(a.ECUs))
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	_, _, err := runCapture(t, "-ecus", "4", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.FromJSON(data); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOutput(t *testing.T) {
	_, errOut, err := runCapture(t, "-ecus", "4", "-buses", "1", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "states:") {
		t.Fatalf("stats missing: %q", errOut)
	}
}

func TestFlexRayFlag(t *testing.T) {
	out, _, err := runCapture(t, "-ecus", "4", "-flexray")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FlexRay") {
		t.Fatalf("FlexRay backbone missing: %q", out)
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := runCapture(t, "-ecus", "1"); err == nil {
		t.Fatal("too-small architecture accepted")
	}
	if _, _, err := runCapture(t, "-o", "/nonexistent-dir/x.json"); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
