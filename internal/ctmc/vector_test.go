package ctmc

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestIntervalUntilVectorMatchesScalar(t *testing.T) {
	c := paperExample(t)
	phi1 := []bool{true, true, true}
	phi2 := []bool{false, false, true}
	vec, err := c.IntervalUntilVectorContext(t.Context(), phi1, phi2, 0.3, 1.2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		scalar := intervalUntil(t, c, dirac(c, s), phi1, phi2, 0.3, 1.2, 1e-12)
		if math.Abs(vec[s]-scalar) > 1e-9 {
			t.Fatalf("state %d: %v vs %v", s, vec[s], scalar)
		}
	}
}

func TestNextVector(t *testing.T) {
	// From s1 of the paper example, exits split 52:2 between s0 and s2.
	c := paperExample(t)
	v, err := c.NextVector([]bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[1]-2.0/54) > 1e-12 {
		t.Fatalf("v[1] = %v", v[1])
	}
	if v[0] != 0 {
		t.Fatalf("v[0] = %v", v[0])
	}
}

func TestNextVectorAbsorbing(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.NextVector([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if v[1] != 0 {
		t.Fatalf("absorbing state next prob = %v", v[1])
	}
}

func TestUnboundedReachabilityVector(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.UnboundedReachabilityVectorContext(t.Context(), []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-0.75) > 1e-9 || v[1] != 0 || v[2] != 1 {
		t.Fatalf("v = %v", v)
	}
}

func TestSteadyStateVectorIrreducible(t *testing.T) {
	// Irreducible chain: identical long-run value from every state.
	c := paperExample(t)
	mask := []bool{false, false, true}
	v, err := c.SteadyStateVectorContext(t.Context(), mask)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.SteadyStateProbabilityContext(t.Context(), dirac(c, 0), mask)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if math.Abs(x-want) > 1e-9 {
			t.Fatalf("state %d: %v, want %v", i, x, want)
		}
	}
}

func TestSteadyStateVectorReducible(t *testing.T) {
	// 0 → 1 (rate 1) and 0 → 2 (rate 3), absorbing: long-run P[in {2}] is
	// 3/4 from 0, 0 from 1, 1 from 2.
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.SteadyStateVectorContext(t.Context(), []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-0.75) > 1e-9 || v[1] != 0 || math.Abs(v[2]-1) > 1e-12 {
		t.Fatalf("v = %v", v)
	}
}

func TestReachabilityRewardVector(t *testing.T) {
	// 0 → 1 → 2 with rates 2 and 4, reward 1 everywhere:
	// expected time to reach 2 is 3/4 from 0, 1/4 from 1, 0 from 2.
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 4)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ReachabilityRewardVectorContext(t.Context(), linalg.Vector{1, 1, 1}, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-0.75) > 1e-9 || math.Abs(v[1]-0.25) > 1e-9 || v[2] != 0 {
		t.Fatalf("v = %v", v)
	}
}

func TestReachabilityRewardVectorInfinite(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ReachabilityRewardVectorContext(t.Context(), linalg.Vector{1, 1, 1}, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v[0], 1) || !math.IsInf(v[2], 1) || v[1] != 0 {
		t.Fatalf("v = %v", v)
	}
}
