package ctmc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expm"
	"repro/internal/linalg"
)

// paperExample builds the worked example of the paper (Fig. 3 / Eq. 13–14):
// three states s0 → s1 → s2 with η = 2, ϕ = 52.
func paperExample(t *testing.T) *Chain {
	t.Helper()
	b := NewBuilder(3)
	b.Add(0, 1, 2)  // η_3G
	b.Add(1, 0, 52) // ϕ_3G
	b.Add(1, 2, 2)  // η_mc
	b.Add(2, 1, 52) // ϕ_mc
	b.Add(2, 0, 52) // ϕ_3G
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func twoState(t *testing.T, up, down float64) *Chain {
	t.Helper()
	b := NewBuilder(2)
	b.Add(0, 1, up)
	b.Add(1, 0, down)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderRejectsBadRates(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, -1)
	if _, err := b.Build(); !errors.Is(err, ErrBadRate) {
		t.Fatalf("err = %v", err)
	}
	b = NewBuilder(2)
	b.Add(0, 1, math.Inf(1))
	if _, err := b.Build(); !errors.Is(err, ErrBadRate) {
		t.Fatalf("err = %v", err)
	}
	b = NewBuilder(2)
	b.Add(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range transition accepted")
	}
}

func TestBuilderIgnoresSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 99)
	b.Add(0, 1, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Exit[0] != 1 {
		t.Fatalf("exit[0] = %v", c.Exit[0])
	}
}

// generator is the generator matrix Q = R − diag(exit) of c, assembled
// through a COO: the reference the dense-oracle tests compare against.
func generator(c *Chain) *linalg.CSR {
	return cooWithDiagonal(c, 1, func(i int) float64 { return -c.Exit[i] })
}

func TestGeneratorMatchesPaperEq14(t *testing.T) {
	c := paperExample(t)
	q := generator(c).ToDense()
	want := [][]float64{
		{-2, 2, 0},
		{52, -54, 2},
		{52, 52, -104},
	}
	for i := range want {
		for j := range want[i] {
			if q.At(i, j) != want[i][j] {
				t.Fatalf("Q(%d,%d) = %v, want %v", i, j, q.At(i, j), want[i][j])
			}
		}
	}
}

// TestSteadyStatePaperEq15 checks the paper's stationary distribution
// π = (0.96296, 0.036338, 0.000699) to the printed precision.
func TestSteadyStatePaperEq15(t *testing.T) {
	c := paperExample(t)
	pi := steadyState(t, c, dirac(c, 0))
	want := []float64{0.96296, 0.036338, 0.000699}
	tol := []float64{5e-6, 5e-7, 5e-7}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > tol[i] {
			t.Fatalf("π[%d] = %v, want %v (paper Eq. 15)", i, pi[i], want[i])
		}
	}
}

func TestSteadyStateExactRatios(t *testing.T) {
	// Closed form for the example: π0 = 26.5·π1, π2 = π1/52.
	c := paperExample(t)
	pi := steadyState(t, c, dirac(c, 0))
	if math.Abs(pi[0]/pi[1]-26.5) > 1e-9 {
		t.Fatalf("π0/π1 = %v", pi[0]/pi[1])
	}
	if math.Abs(pi[2]/pi[1]-1.0/52) > 1e-12 {
		t.Fatalf("π2/π1 = %v", pi[2]/pi[1])
	}
}

func TestTransientTwoStateAnalytic(t *testing.T) {
	lambda, mu := 3.0, 5.0
	c := twoState(t, lambda, mu)
	for _, tt := range []float64{0.01, 0.1, 0.5, 1, 4} {
		pi, err := c.TransientContext(t.Context(), dirac(c, 0), tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		want := lambda / (lambda + mu) * (1 - math.Exp(-(lambda+mu)*tt))
		if math.Abs(pi[1]-want) > 1e-9 {
			t.Fatalf("t=%v: P[1] = %v, want %v", tt, pi[1], want)
		}
	}
}

func TestTransientZeroTime(t *testing.T) {
	c := twoState(t, 1, 1)
	pi, err := c.TransientContext(t.Context(), dirac(c, 1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 0 || pi[1] != 1 {
		t.Fatalf("pi = %v", pi)
	}
}

func TestTransientRejectsBadInput(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.TransientContext(t.Context(), linalg.Vector{0.5, 0.2}, 1, 0); !errors.Is(err, ErrBadInit) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.TransientContext(t.Context(), dirac(c, 0), -1, 0); !errors.Is(err, ErrBadTime) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.TransientContext(t.Context(), dirac(c, 0), math.Inf(1), 0); !errors.Is(err, ErrBadTime) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransientNoTransitions(t *testing.T) {
	b := NewBuilder(2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.TransientContext(t.Context(), dirac(c, 0), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 1 {
		t.Fatalf("pi = %v", pi)
	}
}

func TestCumulativeRewardTwoStateAnalytic(t *testing.T) {
	lambda, mu := 2.0, 7.0
	c := twoState(t, lambda, mu)
	r := linalg.Vector{0, 1} // time spent in state 1
	for _, tt := range []float64{0.1, 1, 3} {
		got, err := c.CumulativeRewardContext(t.Context(), dirac(c, 0), r, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		s := lambda + mu
		want := lambda / s * (tt - (1-math.Exp(-s*tt))/s)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("t=%v: cumulative = %v, want %v", tt, got, want)
		}
	}
}

func TestCumulativeRewardZeroHorizon(t *testing.T) {
	c := twoState(t, 1, 1)
	got, err := c.CumulativeRewardContext(t.Context(), dirac(c, 0), linalg.Vector{1, 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestCumulativeRewardConstantRate(t *testing.T) {
	// Reward 1 everywhere accumulates exactly t.
	c := paperExample(t)
	r := linalg.Vector{1, 1, 1}
	got, err := c.CumulativeRewardContext(t.Context(), dirac(c, 0), r, 2.5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-8 {
		t.Fatalf("got %v, want 2.5", got)
	}
}

func TestInstantaneousReward(t *testing.T) {
	lambda, mu := 3.0, 5.0
	c := twoState(t, lambda, mu)
	pi, err := c.TransientContext(t.Context(), dirac(c, 0), 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := pi.Dot(linalg.Vector{0, 10}) // E[r(X_1)] = π(1)·r
	want := 10 * lambda / (lambda + mu) * (1 - math.Exp(-(lambda + mu)))
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTimeBoundedReachabilityPureBirth(t *testing.T) {
	// 0 → 1 at rate λ, 1 absorbing: P[reach 1 by t] = 1 − e^{-λt}.
	lambda := 1.7
	b := NewBuilder(2)
	b.Add(0, 1, lambda)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.2, 1, 5} {
		got, err := c.TimeBoundedReachabilityContext(t.Context(), dirac(c, 0), []bool{false, true}, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-lambda*tt)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("t=%v: got %v, want %v", tt, got, want)
		}
	}
}

func TestTimeBoundedReachabilityCountsRevisits(t *testing.T) {
	// Target must be absorbing for "reach within t": even if the chain
	// leaves the target afterwards, the reach probability can't decrease
	// with t.
	c := twoState(t, 1, 100) // state 1 left very quickly
	p1, err := c.TimeBoundedReachabilityContext(t.Context(), dirac(c, 0), []bool{false, true}, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.TimeBoundedReachabilityContext(t.Context(), dirac(c, 0), []bool{false, true}, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if p2 < p1 {
		t.Fatalf("reach prob decreased: %v then %v", p1, p2)
	}
	want := 1 - math.Exp(-1.0) // rate-1 exponential hitting time
	if math.Abs(p1-want) > 1e-9 {
		t.Fatalf("p1 = %v, want %v", p1, want)
	}
}

func TestBoundedUntil(t *testing.T) {
	// 0 → 1 → 2; φ1 = {0}, φ2 = {2}: passing through 1 violates φ1, so the
	// probability is 0. With φ1 = {0,1} it equals P[reach 2 ≤ t].
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.BoundedUntilVectorContext(t.Context(), []bool{true, false, false}, []bool{false, false, true}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] > 1e-12 {
		t.Fatalf("blocked until gave %v", p[0])
	}
	p, err = c.BoundedUntilVectorContext(t.Context(), []bool{true, true, false}, []bool{false, false, true}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	reach, err := c.TimeBoundedReachabilityContext(t.Context(), dirac(c, 0), []bool{false, false, true}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-reach) > 1e-10 {
		t.Fatalf("until %v != reach %v", p[0], reach)
	}
}

func TestUnboundedReachability(t *testing.T) {
	// 0 → 1 (rate 1) and 0 → 2 (rate 3), both absorbing: P[reach 2] = 3/4.
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	target := []bool{false, false, true}
	v, err := c.UnboundedReachabilityVectorContext(t.Context(), target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-0.75) > 1e-9 {
		t.Fatalf("vector p = %v", v[0])
	}
}

func TestReachabilityRewardExpectedHittingTime(t *testing.T) {
	// Expected time to go 0 → 1 → 2 with rates 2 and 4: 1/2 + 1/4.
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 4)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.Vector{1, 1, 1}
	got, err := c.ReachabilityRewardContext(t.Context(), dirac(c, 0), r, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("hitting time = %v, want 0.75", got)
	}
}

func TestReachabilityRewardInfinite(t *testing.T) {
	// 0 → 1 or 0 → 2 (absorbing traps); target {1} reached with prob 1/2.
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReachabilityRewardContext(t.Context(), dirac(c, 0), linalg.Vector{1, 1, 1}, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("got %v, want +Inf", got)
	}
}

// A rare escape into a trap still makes the expectation infinite: the
// target is reached with probability 1/(1+1e-12) < 1. A numeric cut-off
// near 1 would call state 0 almost-sure and then trip over the trap.
func TestReachabilityRewardRareEscapeIsInfinite(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 1e-12)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReachabilityRewardContext(t.Context(), dirac(c, 0), linalg.Vector{1, 1, 1}, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("got %v, want +Inf", got)
	}
}

// A trap behind the target does not matter: every path from 0 hits the
// target first, so the expected reward stays finite.
func TestReachabilityRewardTrapBehindTargetIsFinite(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 4)
	b.Add(1, 2, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.ReachabilityRewardVectorContext(t.Context(), linalg.Vector{1, 1, 1}, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0.25 || x[1] != 0 || !math.IsInf(x[2], 1) {
		t.Fatalf("x = %v, want [0.25 0 +Inf]", x)
	}
}

func TestExpectedTimeFractionMatchesSteadyStateLongRun(t *testing.T) {
	// Over a very long horizon the time fraction approaches the stationary
	// probability.
	c := paperExample(t)
	mask := []bool{false, false, true}
	frac, err := c.ExpectedTimeFractionContext(t.Context(), dirac(c, 0), mask, 200, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	pi := steadyState(t, c, dirac(c, 0))
	if math.Abs(frac-pi[2]) > 1e-5 {
		t.Fatalf("fraction %v vs stationary %v", frac, pi[2])
	}
}

func TestSteadyStateReducible(t *testing.T) {
	// 0 → 1 (rate 1) and 0 → 2 (rate 3); 1 and 2 absorbing.
	// π∞ = (0, 1/4, 3/4).
	b := NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := steadyState(t, c, dirac(c, 0))
	if math.Abs(pi[0]) > 1e-12 || math.Abs(pi[1]-0.25) > 1e-9 || math.Abs(pi[2]-0.75) > 1e-9 {
		t.Fatalf("π = %v", pi)
	}
}

func TestSteadyStateReducibleWithCycleBSCC(t *testing.T) {
	// 0 → {1,2} cycle: all long-run mass in the cycle, split by rates.
	b := NewBuilder(3)
	b.Add(0, 1, 5)
	b.Add(1, 2, 1)
	b.Add(2, 1, 3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := steadyState(t, c, dirac(c, 0))
	// Two-state cycle with rates 1 and 3: π1 = 3/4, π2 = 1/4.
	if math.Abs(pi[1]-0.75) > 1e-9 || math.Abs(pi[2]-0.25) > 1e-9 {
		t.Fatalf("π = %v", pi)
	}
}

func randomChain(r *rand.Rand, n int, maxRate float64) *Chain {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.5 {
				b.Add(i, j, r.Float64()*maxRate)
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// Property: uniformisation agrees with the dense matrix exponential
// π(t) = init·e^{Qt} on random small chains.
func TestQuickTransientMatchesMatrixExponential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		c := randomChain(r, n, 4)
		tt := r.Float64() * 3
		init := dirac(c, r.Intn(n))
		got, err := c.TransientContext(t.Context(), init, tt, 1e-12)
		if err != nil {
			return false
		}
		q := generator(c).ToDense()
		q.Scale(tt)
		e, err := expm.Exp(q)
		if err != nil {
			return false
		}
		want, err := e.Transpose().MulVec(init, nil)
		if err != nil {
			return false
		}
		return maxDiff(got, want) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: steady state satisfies πQ = 0 and sums to 1 for random
// irreducible chains (strictly positive rates everywhere ⇒ irreducible).
func TestQuickSteadyStateBalance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					b.Add(i, j, 0.05+r.Float64()*3)
				}
			}
		}
		c, err := b.Build()
		if err != nil {
			return false
		}
		pi := steadyState(t, c, dirac(c, 0))
		if math.Abs(pi.Sum()-1) > 1e-9 {
			return false
		}
		// Check balance: (πQ)_j = Σ_i π_i Q(i,j) ≈ 0.
		qd := generator(c).ToDense()
		res, err := qd.Transpose().MulVec(pi, nil)
		if err != nil {
			return false
		}
		return res.NormInf() < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative reward with indicator mask equals the integral of the
// transient probability (checked against numeric quadrature).
func TestQuickCumulativeMatchesQuadrature(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		c := randomChain(r, n, 3)
		tt := 0.5 + r.Float64()*2
		init := dirac(c, 0)
		mask := make([]bool, n)
		mask[r.Intn(n)] = true
		rew := linalg.NewVector(n)
		for i, m := range mask {
			if m {
				rew[i] = 1
			}
		}
		got, err := c.CumulativeRewardContext(t.Context(), init, rew, tt, 1e-12)
		if err != nil {
			return false
		}
		// Simpson quadrature over the transient probabilities.
		const steps = 64
		h := tt / steps
		var integral float64
		for k := 0; k <= steps; k++ {
			pi, err := c.TransientContext(t.Context(), init, float64(k)*h, 1e-12)
			if err != nil {
				return false
			}
			var p float64
			for i, m := range mask {
				if m {
					p += pi[i]
				}
			}
			w := 2.0
			if k == 0 || k == steps {
				w = 1
			} else if k%2 == 1 {
				w = 4
			}
			integral += w * p
		}
		integral *= h / 3
		return math.Abs(got-integral) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorbingMask(t *testing.T) {
	c := paperExample(t)
	mod, err := c.Absorbing([]bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Exit[1] != 0 {
		t.Fatalf("state 1 not absorbing: exit %v", mod.Exit[1])
	}
	if mod.Exit[0] != 2 {
		t.Fatalf("state 0 modified: exit %v", mod.Exit[0])
	}
}

// TestUniformizedIsStochastic checks that the uniformisation operator's
// rate clears the largest exit rate and that P·1 = 1: every row of P sums
// to one.
func TestUniformizedIsStochastic(t *testing.T) {
	c := paperExample(t)
	uni, err := c.uniformised(true)
	if err != nil {
		t.Fatal(err)
	}
	if uni.q < c.MaxExitRate() {
		t.Fatalf("q = %v below max exit %v", uni.q, c.MaxExitRate())
	}
	ones := linalg.NewVector(c.N())
	ones.Fill(1)
	sums := linalg.NewVector(c.N())
	uni.p.MulVec(ones, sums)
	for i, s := range sums {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

// The reachability system holds the embedded chain's rows: with every
// state unknown, row u is 1 on the diagonal and −R(u,j)/E_u elsewhere.
func TestEmbeddedChain(t *testing.T) {
	c := paperExample(t)
	idx := []int{0, 1, 2}
	a, b, err := c.splitSystem(nil, linalg.NewVector(3), idx, idx)
	if err != nil {
		t.Fatal(err)
	}
	// From s1: exit 54, split 52:2.
	if a.Diag[1] != 1 || b[1] != 0 {
		t.Fatalf("diagonal %v, b %v", a.Diag, b)
	}
	cols, vals := a.Off.Row(1)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != -52.0/54 || vals[1] != -2.0/54 {
		t.Fatalf("row 1 = %v %v", cols, vals)
	}
}

// TestSteadyStateLargeBirthDeath forces the iterative stationary solver
// (the state count exceeds the direct-solve threshold) and checks against
// the closed-form geometric distribution of an M/M/1/c queue.
func TestSteadyStateLargeBirthDeath(t *testing.T) {
	const n = 400 // > directSolveThreshold
	lambda, mu := 2.0, 3.0
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i+1, lambda)
		b.Add(i+1, i, mu)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := steadyState(t, c, dirac(c, 0))
	rho := lambda / mu
	// π_k ∝ ρ^k; normalisation (1-ρ)/(1-ρ^n).
	z := (1 - math.Pow(rho, n)) / (1 - rho)
	for _, k := range []int{0, 1, 10, 100, 399} {
		want := math.Pow(rho, float64(k)) / z
		if math.Abs(pi[k]-want) > 1e-9*(1+want) {
			t.Fatalf("π[%d] = %v, want %v", k, pi[k], want)
		}
	}
	if math.Abs(pi.Sum()-1) > 1e-9 {
		t.Fatalf("sum = %v", pi.Sum())
	}
}

// TestSteadyStateLargeStiff exercises the iterative solver on a stiff chain
// (rates spanning five orders of magnitude, like the Figure-6 sweeps).
func TestSteadyStateLargeStiff(t *testing.T) {
	const n = 300
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i+1, 0.1)
		b.Add(i+1, i, 8760)
	}
	// Make it strongly connected beyond the path: wrap-around.
	b.Add(n-1, 0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := steadyState(t, c, dirac(c, 0))
	// Verify the balance equations directly.
	res, err := generator(c).ToDense().Transpose().MulVec(pi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NormInf() > 1e-8 {
		t.Fatalf("balance residual %v", res.NormInf())
	}
}

// steadyState returns the long-run distribution from init: the long-run
// probability of every single state.
func steadyState(t *testing.T, c *Chain, init linalg.Vector) linalg.Vector {
	t.Helper()
	masks := make([][]bool, c.N())
	for s := range masks {
		masks[s] = make([]bool, c.N())
		masks[s][s] = true
	}
	pi, err := c.SteadyStateProbabilitiesContext(t.Context(), init, masks)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

// maxDiff returns max_i |v_i − w_i|.
func maxDiff(v, w linalg.Vector) float64 {
	var m float64
	for i := range v {
		m = max(m, math.Abs(v[i]-w[i]))
	}
	return m
}

// dirac returns the point distribution on state s of c.
func dirac(c *Chain, s int) linalg.Vector {
	d := linalg.NewVector(c.N())
	d[s] = 1
	return d
}
