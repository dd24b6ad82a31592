package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/ctmc"
	"repro/internal/modular"
	"repro/internal/transform"
)

func twoState(t *testing.T, up, down float64) *ctmc.Chain {
	t.Helper()
	b := ctmc.NewBuilder(2)
	b.Add(0, 1, up)
	b.Add(1, 0, down)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStepAbsorbing(t *testing.T) {
	b := ctmc.NewBuilder(2)
	b.Add(0, 1, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, 1)
	next, sojourn := s.Step(1)
	if next != 1 || !math.IsInf(sojourn, 1) {
		t.Fatalf("absorbing step: %d %v", next, sojourn)
	}
}

func TestTimeFractionMatchesNumeric(t *testing.T) {
	lambda, mu := 3.0, 5.0
	c := twoState(t, lambda, mu)
	mask := []bool{false, true}
	sim := New(c, 42)
	mean, stderr, err := sim.TimeFraction(0, mask, 4, 4000)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.ExpectedTimeFractionContext(t.Context(), []float64{1, 0}, mask, 4, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-exact) > 5*stderr+1e-3 {
		t.Fatalf("simulated %v ± %v vs numeric %v", mean, stderr, exact)
	}
}

func TestReachabilityMatchesNumeric(t *testing.T) {
	lambda := 1.7
	b := ctmc.NewBuilder(2)
	b.Add(0, 1, lambda)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := New(c, 7)
	mean, stderr, err := sim.ReachabilityWithin(0, []bool{false, true}, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	exact := 1 - math.Exp(-lambda)
	if math.Abs(mean-exact) > 5*stderr+1e-3 {
		t.Fatalf("simulated %v ± %v vs exact %v", mean, stderr, exact)
	}
}

func TestReachabilityFromTargetState(t *testing.T) {
	c := twoState(t, 1, 1)
	sim := New(c, 3)
	mean, _, err := sim.ReachabilityWithin(0, []bool{true, false}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 1 {
		t.Fatalf("start-in-target should be 1, got %v", mean)
	}
}

func TestReachabilityDeadEnd(t *testing.T) {
	// Absorbing non-target start: probability 0, and the walk must
	// terminate.
	b := ctmc.NewBuilder(2)
	b.Add(1, 0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := New(c, 5)
	mean, _, err := sim.ReachabilityWithin(0, []bool{false, true}, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 0 {
		t.Fatalf("got %v", mean)
	}
}

func TestValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	sim := New(c, 1)
	if _, _, err := sim.TimeFraction(5, []bool{true, false}, 1, 10); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := sim.TimeFraction(0, []bool{true}, 1, 10); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := sim.TimeFraction(0, []bool{true, false}, -1, 10); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := sim.ReachabilityWithin(0, []bool{true, false}, 1, 0); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterministicSeed(t *testing.T) {
	c := twoState(t, 2, 3)
	a, _, err := New(c, 99).TimeFraction(0, []bool{false, true}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := New(c, 99).TimeFraction(0, []bool{false, true}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

// TestCrossValidateCaseStudy is the end-to-end validation of DESIGN.md §7:
// the Figure-5 headline number for Architecture 1 must agree between the
// model checker and the Monte-Carlo simulator.
func TestCrossValidateCaseStudy(t *testing.T) {
	res, err := transform.Build(arch.Architecture1(), arch.MessageM, transform.Options{
		Category: transform.Availability,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mask, err := ex.LabelMask(transform.LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := ex.Chain.ExpectedTimeFractionContext(t.Context(), ex.InitDistribution(), mask, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(ex.Chain, 2026)
	mc, stderr, err := sim.TimeFraction(ex.InitIndex(), mask, 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-numeric) > 5*stderr+2e-3 {
		t.Fatalf("Monte-Carlo %v ± %v disagrees with numeric %v", mc, stderr, numeric)
	}
}
