package main

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestShippedModels checks every model in models/ against known-good
// property values, exercising the full prismc pipeline end to end.
func TestShippedModels(t *testing.T) {
	cases := []struct {
		model string
		prop  string
		want  float64
		tol   float64
	}{
		// The paper's worked example: stationary probability of s2
		// (Eq. 15: 0.000699) and the reward view.
		{"paper_fig3.pm", `S=? [ "exploited" ]`, 0.000699, 2e-6},
		{"paper_fig3.pm", `R{"exploited_time"}=? [ C<=1 ]`, 0.000679, 2e-5},
		// Tandem queue: cross-validated against the Gillespie simulator
		// (0.01381 ± 0.00026 over 200k trajectories).
		{"tandem_queue.pm", `P=? [ F<=1 "station1_blocked" ]`, 0.014214, 5e-5},
		// TMR: cross-validated against the simulator (0.0919 ± 0.0007).
		{"tmr_system.pm", `P=? [ F<=1 !"operational" ]`, 0.092383, 5e-5},
		// Reducible: two absorbing outcomes and a recurrent patch cycle,
		// 3/8 + 4/8·1/4 exactly.
		{"disclosure_outcomes.pm", `S=? [ "exposed" ]`, 0.5, 1e-12},
	}
	for _, c := range cases {
		t.Run(c.model+"/"+c.prop, func(t *testing.T) {
			out, err := runCapture(t, "-prop", c.prop, filepath.Join("..", "..", "models", c.model))
			if err != nil {
				t.Fatal(err)
			}
			got := extractValue(t, out)
			if math.Abs(got-c.want) > c.tol {
				t.Fatalf("%s on %s = %v, want %v ± %v", c.prop, c.model, got, c.want, c.tol)
			}
		})
	}
}

// TestShippedModelsBounds sanity-checks qualitative statements.
func TestShippedModelsBounds(t *testing.T) {
	// TMR symmetric modules lump 8 -> 4 states; verify parse + stats work.
	out, err := runCapture(t, "-stats", filepath.Join("..", "..", "models", "tmr_system.pm"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "states:      8") {
		t.Fatalf("tmr stats: %q", out)
	}
	// Tandem queue has (c+1)^2 = 36 states.
	out, err = runCapture(t, "-stats", filepath.Join("..", "..", "models", "tandem_queue.pm"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "states:      36") {
		t.Fatalf("tandem stats: %q", out)
	}
}

// extractValue pulls the numeric result out of "prop = value (duration)".
func extractValue(t *testing.T, out string) float64 {
	t.Helper()
	line := strings.TrimSpace(out)
	eq := strings.LastIndex(line, "= ")
	if eq < 0 {
		t.Fatalf("no result in %q", out)
	}
	rest := strings.Fields(line[eq+2:])
	if len(rest) == 0 {
		t.Fatalf("no value in %q", out)
	}
	v, err := strconv.ParseFloat(rest[0], 64)
	if err != nil {
		t.Fatalf("bad value %q: %v", rest[0], err)
	}
	return v
}
