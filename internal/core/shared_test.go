package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/transform"
)

// sharedCorpus returns the case study plus three seeded synthetic
// architectures (3–5 ECUs, 1–2 buses, FlexRay backbone on and off), each
// with a second message stream "diag" (m's route reversed) and failure
// rates on m's endpoints.
func sharedCorpus(t *testing.T) []*arch.Architecture {
	t.Helper()
	archs := arch.CaseStudy()
	rng := rand.New(rand.NewPCG(19, 5))
	for i := 0; i < 3; i++ {
		a, err := arch.Synthetic(arch.SyntheticSpec{
			ECUs: 3 + rng.IntN(3), Buses: 1 + rng.IntN(2), FlexRayBackbone: i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	for _, a := range archs {
		m := *a.Message(arch.MessageM)
		route := slices.Clone(m.Buses)
		slices.Reverse(route)
		a.Messages = append(a.Messages, arch.Message{
			Name: "diag", Sender: m.Receivers[0], Receivers: []string{m.Sender}, Buses: route,
		})
		for _, name := range []string{m.Sender, m.Receivers[0]} {
			e := a.ECU(name)
			e.FailureRate, e.RepairRate = 0.5, 50
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return archs
}

// sharedVariants are the model-side settings crossed with nmax 1–2.
var sharedVariants = []Analyzer{
	{},
	{LiteralPatchGuard: true},
	{LinearPatchRates: true},
	{IncludeReliability: true},
	{MessagePatchRate: 3},
}

// sharedMaxStates bounds the uncovered chain of a differential
// configuration; larger ones are skipped to keep the test fast.
const sharedMaxStates = 300

// perCell is the reference the shared path must reproduce: it builds,
// explores and solves one cell alone, as every analysis did before cells
// shared chains.
func perCell(t *testing.T, an Analyzer, ar *arch.Architecture, msg string, cat transform.Category, prot transform.Protection) *Result {
	t.Helper()
	an = an.withDefaults()
	res, err := transform.Build(ar, msg, an.options(cat, prot))
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
	chain, init := ex.Chain, ex.InitDistribution()
	r := &Result{
		Architecture: ar.Name, Message: msg, Category: cat, Protection: prot,
		States: ex.N(), Transitions: chain.Rates.NNZ(), SteadyState: math.NaN(),
	}
	if an.UseLumping {
		sig := make([]int, len(mask))
		for i, m := range mask {
			if m {
				sig[i] = 1
			}
		}
		l, err := chain.Lump(sig)
		if err != nil {
			t.Fatal(err)
		}
		if mask, err = l.LumpMask(mask); err != nil {
			t.Fatal(err)
		}
		if init, err = l.LumpDistribution(init); err != nil {
			t.Fatal(err)
		}
		chain = l.Quotient
		r.LumpedStates = chain.N()
	}
	if r.TimeFraction, err = chain.ExpectedTimeFractionContext(t.Context(), init, mask, an.Horizon, an.Accuracy); err != nil {
		t.Fatal(err)
	}
	if !an.SkipSteadyState {
		if r.SteadyState, err = chain.SteadyStateProbabilityContext(t.Context(), init, mask); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sameFloat is bit equality on amd64 (NaN equal to NaN) and relTol 1e-7
// elsewhere, where fused multiply–adds may move the last bits.
func sameFloat(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= goldenRelTol*math.Max(math.Abs(want), 1e-9)
}

// sameResult reports how a shared-path result differs from the reference.
func sameResult(got, want *Result) error {
	switch {
	case got.Architecture != want.Architecture || got.Message != want.Message ||
		got.Category != want.Category || got.Protection != want.Protection:
		return fmt.Errorf("cell %s/%s/%s/%s, want %s/%s/%s/%s", got.Architecture, got.Message, got.Category, got.Protection,
			want.Architecture, want.Message, want.Category, want.Protection)
	case got.States != want.States || got.Transitions != want.Transitions || got.LumpedStates != want.LumpedStates:
		return fmt.Errorf("sizes %d/%d/%d, want %d/%d/%d", got.States, got.Transitions, got.LumpedStates,
			want.States, want.Transitions, want.LumpedStates)
	case !sameFloat(got.TimeFraction, want.TimeFraction):
		return fmt.Errorf("time fraction %.17g, want %.17g", got.TimeFraction, want.TimeFraction)
	case !sameFloat(got.SteadyState, want.SteadyState):
		return fmt.Errorf("steady state %.17g, want %.17g", got.SteadyState, want.SteadyState)
	}
	return nil
}

// TestSharedMatchesPerCell runs AnalyzeAllContext (both messages) over the
// corpus and compares each result with the per-cell reference. Configuration k runs with flag combination
// k mod 4 of UseLumping and SkipSteadyState, so every combination is
// covered.
func TestSharedMatchesPerCell(t *testing.T) {
	configs := 0
	for _, ar := range sharedCorpus(t) {
		for nmax := 1; nmax <= 2; nmax++ {
			for _, v := range sharedVariants {
				an := v
				an.NMax = nmax
				if _, err := (Analyzer{NMax: nmax, MaxStates: sharedMaxStates}).PrepareContext(t.Context(), ar, arch.MessageM,
					transform.Availability, transform.Unencrypted); errors.Is(err, modular.ErrBudgetExceeded) {
					continue
				}
				an.UseLumping = configs&1 != 0
				an.SkipSteadyState = configs&2 != 0
				configs++
				name := fmt.Sprintf("%s nmax=%d %+v", ar.Name, nmax, an)
				want := map[cell]*Result{}
				for _, m := range ar.Messages {
					for _, c := range Categories {
						for _, p := range Protections {
							want[cell{m.Name, c, p}] = perCell(t, an, ar, m.Name, c, p)
						}
					}
				}
				check := func(entry string, rs []*Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %s: %v", name, entry, err)
					}
					for _, r := range rs {
						if err := sameResult(r, want[cell{r.Message, r.Category, r.Protection}]); err != nil {
							t.Errorf("%s: %s: %s/%s/%s: %v", name, entry, r.Message, r.Category, r.Protection, err)
						}
					}
				}
				for _, m := range ar.Messages {
					rs, err := an.AnalyzeAllContext(t.Context(), ar, m.Name)
					if err == nil && len(rs) != 9 {
						err = fmt.Errorf("%d results", len(rs))
					}
					check("AnalyzeAll("+m.Name+")", rs, err)
				}
			}
		}
	}
	if configs < 16 {
		t.Fatalf("only %d configurations under %d states", configs, sharedMaxStates)
	}
	t.Logf("%d configurations", configs)
}

// TestPreparedCellServesSiblings checks Cell on a chain prepared for one
// cell: a sibling prepared with the chain is returned as is, one labelled
// afterwards solves like its own preparation, and a cell of another
// structure is refused.
func TestPreparedCellServesSiblings(t *testing.T) {
	an := Analyzer{NMax: 1}
	ar := arch.Architecture1()
	ctx := t.Context()
	p, err := an.PrepareChainContext(ctx, ar, arch.MessageM, transform.Confidentiality, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.Cell(transform.Availability, transform.CMAC128)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Cell(transform.Availability, transform.CMAC128)
	if err != nil || a1 != a2 {
		t.Fatalf("prepared sibling not reused: %p vs %p (%v)", a1, a2, err)
	}
	if a1.Explored.Chain != p.Explored.Chain {
		t.Fatal("sibling does not share the explored chain")
	}
	if _, err := p.Cell(transform.Integrity, transform.AES128); !errors.Is(err, transform.ErrStructureMismatch) {
		t.Fatalf("covered cell on the uncovered chain: err = %v", err)
	}

	one, err := an.PrepareContext(ctx, ar, arch.MessageM, transform.Confidentiality, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	late, err := one.Cell(transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.AnalyzePreparedContext(ctx, late)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, perCell(t, an, ar, arch.MessageM, transform.Availability, transform.Unencrypted)); err != nil {
		t.Fatal(err)
	}
}
