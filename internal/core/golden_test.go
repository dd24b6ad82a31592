package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/transform"
)

var update = flag.Bool("update", false, "rewrite testdata/solver.golden from the current analyzer")

// goldenRelTol is the relative tolerance of the golden comparison off
// amd64, where fused multiply–adds may change the last bits. It matches
// the benchmark's reference tolerance.
const goldenRelTol = 1e-7

// solverGolden renders TimeFraction and SteadyState at full precision for
// all 27 Figure-5 cells and the 19,683-state synthetic chain.
func solverGolden(t *testing.T) string {
	t.Helper()
	an := Analyzer{NMax: 2, Horizon: 1}
	var sb strings.Builder
	for ai, ar := range arch.CaseStudy() {
		rs, err := an.AnalyzeAllContext(t.Context(), ar, arch.MessageM)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "arch%d/%v/%v %d %.17g %.17g\n", ai+1, r.Category, r.Protection, r.States, r.TimeFraction, r.SteadyState)
		}
	}
	syn, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, an, syn, transform.Availability, transform.Unencrypted)
	fmt.Fprintf(&sb, "synthetic-7x2/%v/%v %d %.17g %.17g\n", r.Category, r.Protection, r.States, r.TimeFraction, r.SteadyState)
	return sb.String()
}

// TestSolverGolden pins the headline numbers bit for bit on amd64, so a
// change to the solver path that claims to keep behaviour fixed is checked
// against recorded values, not against itself. Regenerate with -update
// only when a change is meant to move the numbers.
func TestSolverGolden(t *testing.T) {
	got := solverGolden(t)
	path := filepath.Join("testdata", "solver.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	want := string(raw)
	if runtime.GOARCH == "amd64" {
		if got != want {
			t.Fatalf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range wl {
		gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i])
		if len(gf) != len(wf) {
			t.Fatalf("line %d: %q, want %q", i+1, gl[i], wl[i])
		}
		for k := range wf {
			if k < 2 {
				if gf[k] != wf[k] {
					t.Fatalf("line %d: %q, want %q", i+1, gl[i], wl[i])
				}
				continue
			}
			g, err1 := strconv.ParseFloat(gf[k], 64)
			w, err2 := strconv.ParseFloat(wf[k], 64)
			if err1 != nil || err2 != nil || math.Abs(g-w) > goldenRelTol*math.Max(math.Abs(w), 1e-9) {
				t.Fatalf("line %d: %q, want %q", i+1, gl[i], wl[i])
			}
		}
	}
}
