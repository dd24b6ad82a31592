package ctmc_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ctmc"
)

// The paper's worked example (Section 3.3): build the three-state chain,
// compute its stationary distribution, the reward-based exploitable time
// and the probability of reaching the exploited state within a year.
func Example() {
	b := ctmc.NewBuilder(3)
	b.Add(0, 1, 2)  // η_3G: telematics exploited
	b.Add(1, 0, 52) // ϕ_3G: telematics patched
	b.Add(1, 2, 2)  // η_mc: message protection broken
	b.Add(2, 1, 52) // ϕ_mc: protection patched
	b.Add(2, 0, 52) // ϕ_3G from the fully-exploited state
	chain, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	start := []float64{1, 0, 0} // the chain starts in s0
	pi, err := chain.SteadyStateProbabilitiesContext(ctx, start, [][]bool{{true, false, false}, {false, true, false}, {false, false, true}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stationary: (%.5f, %.6f, %.6f)\n", pi[0], pi[1], pi[2])

	frac, err := chain.ExpectedTimeFractionContext(ctx, start, []bool{false, false, true}, 1, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exploitable within first year: %.4f%%\n", 100*frac)

	reach, err := chain.TimeBoundedReachabilityContext(ctx, start, []bool{false, false, true}, 1, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P[reach s2 within 1 year] = %.2f%%\n", 100*reach)
	// Output:
	// stationary: (0.96296, 0.036338, 0.000699)
	// exploitable within first year: 0.0679%
	// P[reach s2 within 1 year] = 6.78%
}

// ExampleChain_TimeBoundedReachabilityContext computes the probability of a
// pure birth process firing within one time unit.
func ExampleChain_TimeBoundedReachabilityContext() {
	b := ctmc.NewBuilder(2)
	b.Add(0, 1, 1) // rate-1 exponential
	chain, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	p, err := chain.TimeBoundedReachabilityContext(context.Background(), []float64{1, 0}, []bool{false, true}, 1, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P = %.4f\n", p) // 1 - 1/e
	// Output:
	// P = 0.6321
}

// ExampleChain_Lump demonstrates the ordinary-lumping quotient of a chain
// with two symmetric states.
func ExampleChain_Lump() {
	b := ctmc.NewBuilder(4)
	b.Add(0, 1, 2)
	b.Add(0, 2, 2)
	b.Add(1, 3, 5)
	b.Add(2, 3, 5)
	chain, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	l, err := chain.Lump([]int{0, 1, 1, 2}) // 1 and 2 share a signature
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("states: %d -> %d\n", chain.N(), l.Quotient.N())

	// The quotient preserves every analysis exactly.
	ctx := context.Background()
	mask := []bool{false, true, true, false}
	start := []float64{1, 0, 0, 0}
	full, err := chain.ExpectedTimeFractionContext(ctx, start, mask, 1, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	li, err := l.LumpDistribution(start)
	if err != nil {
		log.Fatal(err)
	}
	lm, err := l.LumpMask(mask)
	if err != nil {
		log.Fatal(err)
	}
	lumped, err := l.Quotient.ExpectedTimeFractionContext(ctx, li, lm, 1, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical: %v\n", fmt.Sprintf("%.10f", full) == fmt.Sprintf("%.10f", lumped))
	// Output:
	// states: 4 -> 3
	// identical: true
}
