package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// boundedUntil is the forward oracle for P[φ1 U≤t φ2] from init: φ2 and
// ¬φ1∧¬φ2 states are made absorbing, and the answer is the transient mass
// in φ2 at time tt.
func boundedUntil(t *testing.T, c *Chain, init linalg.Vector, phi1, phi2 []bool, tt, accuracy float64) float64 {
	t.Helper()
	absorb := make([]bool, c.N())
	for i := range absorb {
		absorb[i] = phi2[i] || !phi1[i]
	}
	mod, err := c.Absorbing(absorb)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := mod.TransientContext(t.Context(), init, tt, accuracy)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
	for i, in := range phi2 {
		if in {
			p += pi[i]
		}
	}
	return math.Min(p, 1)
}

// intervalUntil is the forward oracle for P[φ1 U[t1,t2] φ2] from init: the
// distribution at t1 with ¬φ1 states absorbing, restricted to φ1 states,
// then boundedUntil over the remaining t2 − t1.
func intervalUntil(t *testing.T, c *Chain, init linalg.Vector, phi1, phi2 []bool, t1, t2, accuracy float64) float64 {
	t.Helper()
	notPhi1 := make([]bool, c.N())
	for i := range notPhi1 {
		notPhi1[i] = !phi1[i]
	}
	mod, err := c.Absorbing(notPhi1)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := mod.TransientContext(t.Context(), init, t1, accuracy)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for i := range pi {
		if phi1[i] {
			mass += pi[i]
		} else {
			pi[i] = 0
		}
	}
	if mass == 0 {
		return 0
	}
	for i := range pi {
		pi[i] /= mass
	}
	return mass * boundedUntil(t, c, pi, phi1, phi2, t2-t1, accuracy)
}

func TestBackwardTransientMatchesForward(t *testing.T) {
	// init·e^{Qt}·v computed both ways must agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		c := randomChain(r, n, 4)
		tt := r.Float64() * 2
		v := linalg.NewVector(n)
		for i := range v {
			v[i] = r.Float64() * 3
		}
		init := dirac(c, r.Intn(n))
		fwd, err := c.TransientContext(t.Context(), init, tt, 1e-12)
		if err != nil {
			return false
		}
		bwd, err := c.BackwardTransientContext(t.Context(), v, tt, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(fwd.Dot(v)-init.Dot(bwd)) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardTransientZeroTime(t *testing.T) {
	c := twoState(t, 1, 2)
	v := linalg.Vector{3, 7}
	out, err := c.BackwardTransientContext(t.Context(), v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxDiff(out, v) != 0 {
		t.Fatalf("out = %v", out)
	}
	out[0] = 99
	if v[0] == 99 {
		t.Fatal("aliases input")
	}
}

func TestTimeBoundedReachabilityVectorMatchesScalar(t *testing.T) {
	c := paperExample(t)
	target := []bool{false, false, true}
	vec, err := c.TimeBoundedReachabilityVectorContext(t.Context(), target, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		scalar, err := c.TimeBoundedReachabilityContext(t.Context(), dirac(c, s), target, 1, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vec[s]-scalar) > 1e-9 {
			t.Fatalf("state %d: vector %v vs scalar %v", s, vec[s], scalar)
		}
	}
	if vec[2] != 1 {
		t.Fatalf("target state reach prob = %v", vec[2])
	}
}

func TestBoundedUntilVectorMatchesScalar(t *testing.T) {
	c := paperExample(t)
	phi1 := []bool{true, true, false}
	phi2 := []bool{false, false, true}
	vec, err := c.BoundedUntilVectorContext(t.Context(), phi1, phi2, 0.7, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		scalar := boundedUntil(t, c, dirac(c, s), phi1, phi2, 0.7, 1e-12)
		if math.Abs(vec[s]-scalar) > 1e-9 {
			t.Fatalf("state %d: vector %v vs scalar %v", s, vec[s], scalar)
		}
	}
}

func TestIntervalUntilDegeneratesToBounded(t *testing.T) {
	c := paperExample(t)
	phi1 := []bool{true, true, true}
	phi2 := []bool{false, false, true}
	a, err := c.IntervalUntilVectorContext(t.Context(), phi1, phi2, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BoundedUntilVectorContext(t.Context(), phi1, phi2, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if math.Abs(a[s]-b[s]) > 1e-12 {
			t.Fatalf("state %d: t1=0 interval %v != bounded %v", s, a[s], b[s])
		}
	}
}

func TestIntervalUntilPureBirthAnalytic(t *testing.T) {
	// 0 → 1 at rate λ, 1 absorbing, φ1 = {0}, φ2 = {1}:
	// P[φ1 U[t1,t2] φ2 | X_0 = 0] = P[T ∈ [0, t2]] − P[T < t1 ... ] —
	// precisely: the jump must happen in [t1, t2] OR have happened... no:
	// if the jump happens before t1, the state at t1 is 1 (∉ φ1) but φ2 is
	// still witnessed at t1 only if φ2 holds at some t ∈ [t1,t2] with φ1
	// before — φ1 fails on [T, t1). So P = e^{-λt1} − e^{-λt2}.
	lambda := 1.3
	b := NewBuilder(2)
	b.Add(0, 1, lambda)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := 0.4, 1.7
	got, err := c.IntervalUntilVectorContext(t.Context(), []bool{true, false}, []bool{false, true}, t1, t2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-lambda*t1) - math.Exp(-lambda*t2)
	if math.Abs(got[0]-want) > 1e-9 {
		t.Fatalf("got %v, want %v", got[0], want)
	}
}

func TestIntervalUntilInvalidInterval(t *testing.T) {
	c := twoState(t, 1, 1)
	phi := []bool{true, true}
	if _, err := c.IntervalUntilVectorContext(t.Context(), phi, phi, 2, 1, 0); err == nil {
		t.Fatal("t2 < t1 accepted")
	}
	if _, err := c.IntervalUntilVectorContext(t.Context(), phi, phi, -1, 1, 0); err == nil {
		t.Fatal("negative t1 accepted")
	}
}

func TestCumulativeRewardVectorMatchesScalar(t *testing.T) {
	c := paperExample(t)
	r := linalg.Vector{0, 1, 3}
	vec, err := c.CumulativeRewardVectorContext(t.Context(), r, 1.5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		scalar, err := c.CumulativeRewardContext(t.Context(), dirac(c, s), r, 1.5, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vec[s]-scalar) > 1e-8 {
			t.Fatalf("state %d: vector %v vs scalar %v", s, vec[s], scalar)
		}
	}
}

func TestReachabilityVectorMonotoneInTime(t *testing.T) {
	c := paperExample(t)
	target := []bool{false, false, true}
	v1, err := c.TimeBoundedReachabilityVectorContext(t.Context(), target, 0.5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.TimeBoundedReachabilityVectorContext(t.Context(), target, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v2[i] < v1[i]-1e-12 {
			t.Fatalf("reach prob decreased at state %d: %v -> %v", i, v1[i], v2[i])
		}
	}
}
