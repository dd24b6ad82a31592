package ctmc

import (
	"testing"
)

// midChain builds a 400-state birth–death chain with mildly stiff rates —
// large enough that TransientContext does real uniformisation work (q·t ≈ 120,
// a few hundred matvecs) but small enough for AllocsPerRun.
func midChain(tb testing.TB) *Chain {
	tb.Helper()
	const n = 400
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i+1, 3.0+float64(i%7))
		b.Add(i+1, i, 12.0)
	}
	c, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// seedTransientAllocs is the allocation count of Chain.TransientContext on midChain
// measured at the pre-observability seed (commit fa2942e). The no-op obs
// path must not add a single allocation on top of it.
const seedTransientAllocs = 48

// TestTransientNoopObsZeroAllocs pins TransientContext's allocation count to the
// uninstrumented baseline: with no sink installed (the default), the
// observability layer must contribute exactly zero allocations.
func TestTransientNoopObsZeroAllocs(t *testing.T) {
	c := midChain(t)
	init := dirac(c, 0)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.TransientContext(t.Context(), init, 8, 1e-10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > seedTransientAllocs {
		t.Fatalf("Transient allocates %v times with obs disabled; seed baseline is %d — the no-op sink must be allocation-free",
			allocs, seedTransientAllocs)
	}
}

// parentCumulativeRewardAllocs is the allocation count of
// Chain.CumulativeRewardContext on midChain measured before the transient and
// cumulative series were folded into one uniformisation kernel. The kernel
// sits on the Figure-5 hot path (ctmc.cumulative_reward) and must not add
// allocations to it.
const parentCumulativeRewardAllocs = 10

// TestCumulativeRewardNoopObsAllocs pins CumulativeRewardContext's allocation
// count with observability disabled.
func TestCumulativeRewardNoopObsAllocs(t *testing.T) {
	c := midChain(t)
	init := dirac(c, 0)
	reward := make([]float64, c.N())
	for i := range reward {
		reward[i] = float64(i % 2)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.CumulativeRewardContext(t.Context(), init, reward, 8, 1e-10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parentCumulativeRewardAllocs {
		t.Fatalf("CumulativeReward allocates %v times with obs disabled; baseline is %d",
			allocs, parentCumulativeRewardAllocs)
	}
}

// BenchmarkTransientObsOff is the committed evidence that the disabled
// instrumentation path is within noise of the seed (compare ns/op against
// BenchmarkTransientObsOn to see the cost of a live sink).
func BenchmarkTransientObsOff(b *testing.B) {
	c := midChain(b)
	init := dirac(c, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientContext(b.Context(), init, 8, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}
