package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// symmetricPair builds a chain with two interchangeable intermediate states:
// 0 → {1, 2} (rate a each), {1, 2} → 3 (rate b each). 1 and 2 are ordinarily
// lumpable.
func symmetricPair(t *testing.T, a, b float64) *Chain {
	t.Helper()
	bd := NewBuilder(4)
	bd.Add(0, 1, a)
	bd.Add(0, 2, a)
	bd.Add(1, 3, b)
	bd.Add(2, 3, b)
	c, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLumpMergesSymmetricStates(t *testing.T) {
	c := symmetricPair(t, 2, 3)
	// Signature distinguishes 0, {1,2}, 3.
	l, err := c.Lump([]int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.Quotient.N() != 3 {
		t.Fatalf("quotient size = %d, want 3", l.Quotient.N())
	}
	if l.BlockOf[1] != l.BlockOf[2] {
		t.Fatal("symmetric states not merged")
	}
	// Aggregated rate 0 → {1,2} must be 4.
	b0 := l.BlockOf[0]
	b12 := l.BlockOf[1]
	if got := l.Quotient.Rates.At(b0, b12); got != 4 {
		t.Fatalf("aggregated rate = %v, want 4", got)
	}
}

func TestLumpRespectsSignature(t *testing.T) {
	c := symmetricPair(t, 2, 3)
	// Distinguishing 1 from 2 in the signature must prevent merging.
	l, err := c.Lump([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Quotient.N() != 4 {
		t.Fatalf("quotient size = %d, want 4", l.Quotient.N())
	}
}

func TestLumpRefinesAsymmetricRates(t *testing.T) {
	// Same signature for 1 and 2 but different exit rates: refinement must
	// split them.
	bd := NewBuilder(4)
	bd.Add(0, 1, 2)
	bd.Add(0, 2, 2)
	bd.Add(1, 3, 5)
	bd.Add(2, 3, 7) // differs
	c, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lump([]int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockOf[1] == l.BlockOf[2] {
		t.Fatal("states with different rates merged")
	}
}

func TestLumpPreservesTransient(t *testing.T) {
	c := symmetricPair(t, 2, 3)
	sig := []int{0, 1, 1, 2}
	l, err := c.Lump(sig)
	if err != nil {
		t.Fatal(err)
	}
	init := dirac(c, 0)
	linit, err := l.LumpDistribution(init)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.1, 0.5, 2} {
		full, err := c.TransientContext(t.Context(), init, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		lumped, err := l.Quotient.TransientContext(t.Context(), linit, tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		// Block marginals must coincide.
		for b, members := range l.Blocks {
			var sum float64
			for _, s := range members {
				sum += full[s]
			}
			if math.Abs(sum-lumped[b]) > 1e-9 {
				t.Fatalf("t=%v block %d: full %v vs lumped %v", tt, b, sum, lumped[b])
			}
		}
	}
}

func TestLumpPreservesCumulativeReward(t *testing.T) {
	c := symmetricPair(t, 2, 3)
	l, err := c.Lump([]int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mask := []bool{false, true, true, false}
	lm, err := l.LumpMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	init := dirac(c, 0)
	linit, err := l.LumpDistribution(init)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.ExpectedTimeFractionContext(t.Context(), init, mask, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	lumped, err := l.Quotient.ExpectedTimeFractionContext(t.Context(), linit, lm, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-lumped) > 1e-9 {
		t.Fatalf("full %v vs lumped %v", full, lumped)
	}
}

func TestLumpMaskNotConstantRejected(t *testing.T) {
	c := symmetricPair(t, 2, 3)
	l, err := c.Lump([]int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LumpMask([]bool{false, true, false, false}); err == nil {
		t.Fatal("non-constant mask accepted")
	}
}

func TestLumpSignatureLengthError(t *testing.T) {
	c := symmetricPair(t, 1, 1)
	if _, err := c.Lump([]int{0, 1}); err == nil {
		t.Fatal("bad signature accepted")
	}
}

// Property: for random chains and the trivial signature (all states
// distinct), the quotient is the chain itself; for the uniform signature,
// lumping preserves time-bounded reachability of signature-respecting
// targets.
func TestQuickLumpPreservesReachability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		c := randomChain(r, n, 3)
		// Signature: a random 2-colouring; target = colour 1.
		sig := make([]int, n)
		target := make([]bool, n)
		for i := range sig {
			sig[i] = r.Intn(2)
			target[i] = sig[i] == 1
		}
		l, err := c.Lump(sig)
		if err != nil {
			return false
		}
		lt, err := l.LumpMask(target)
		if err != nil {
			return false
		}
		init := dirac(c, r.Intn(n))
		linit, err := l.LumpDistribution(init)
		if err != nil {
			return false
		}
		tt := 0.3 + r.Float64()
		full, err := c.TimeBoundedReachabilityContext(t.Context(), init, target, tt, 1e-12)
		if err != nil {
			return false
		}
		lumped, err := l.Quotient.TimeBoundedReachabilityContext(t.Context(), linit, lt, tt, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(full-lumped) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
