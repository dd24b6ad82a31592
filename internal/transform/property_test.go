package transform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/modular"
)

// randomArch draws a random synthetic architecture spec.
func randomArch(r *rand.Rand) *arch.Architecture {
	spec := arch.SyntheticSpec{
		ECUs:            3 + r.Intn(3),
		Buses:           1 + r.Intn(2),
		FlexRayBackbone: r.Intn(2) == 0,
	}
	a, err := arch.Synthetic(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// TestQuickTransformInvariants checks structural invariants of the
// generated models over random architectures, categories and protections:
//
//  1. the model explores without error and has ≥ 1 state;
//  2. the initial (all-secure) state is never violated;
//  3. availability violation is monotone in the bus predicates: every
//     state where a route bus is exploitable is violated;
//  4. the model round-trips through PRISM export.
func TestQuickTransformInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArch(r)
		opts := Options{
			NMax:       1 + r.Intn(2),
			Category:   Category(r.Intn(3)),
			Protection: Protection(r.Intn(3)),
		}
		res, err := Build(a, arch.MessageM, opts)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		ex, err := res.Model.ExploreContext(t.Context(), modular.ExploreOpts{MaxStates: 200000})
		if err != nil {
			t.Logf("explore: %v", err)
			return false
		}
		violated, err := ex.LabelMask(LabelViolated)
		if err != nil {
			t.Logf("mask: %v", err)
			return false
		}
		if violated[ex.InitIndex()] {
			t.Log("initial state violated")
			return false
		}
		secure, err := ex.LabelMask(LabelSecure)
		if err != nil {
			return false
		}
		for i := range violated {
			if violated[i] == secure[i] {
				t.Log("violated and secure labels not complementary")
				return false
			}
		}
		if opts.Category == Availability {
			msg := a.Message(arch.MessageM)
			for _, bn := range msg.Buses {
				busMask, err := ex.LabelMask("exp_bus_" + bn)
				if err != nil {
					return false
				}
				for i := range busMask {
					if busMask[i] && !violated[i] {
						t.Logf("route bus %s exploitable but availability intact", bn)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotoneInExploitRates: scaling every exploit rate up must not
// decrease the exploitable-time fraction (sanity of the whole pipeline).
func TestQuickMonotoneInExploitRates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArch(r)
		frac := func(scale float64) float64 {
			c := a.Clone()
			for i := range c.ECUs {
				for k := range c.ECUs[i].Interfaces {
					c.ECUs[i].Interfaces[k].ExploitRate *= scale
				}
			}
			res, err := Build(c, arch.MessageM, Options{NMax: 1, Category: Availability})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := res.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
			if err != nil {
				t.Fatal(err)
			}
			mask, err := ex.LabelMask(LabelViolated)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ex.Chain.ExpectedTimeFractionContext(t.Context(), ex.InitDistribution(), mask, 1, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		lo := frac(1)
		hi := frac(1 + r.Float64()*2)
		return hi >= lo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
