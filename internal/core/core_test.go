package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/transform"
)

func analyze(t *testing.T, a Analyzer, ar *arch.Architecture, cat transform.Category, prot transform.Protection) *Result {
	t.Helper()
	r, err := a.AnalyzeContext(t.Context(), ar, arch.MessageM, cat, prot)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAnalyzeBasics(t *testing.T) {
	r := analyze(t, Analyzer{}, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	if r.TimeFraction <= 0 || r.TimeFraction >= 1 {
		t.Fatalf("time fraction = %v", r.TimeFraction)
	}
	if r.States <= 1 || r.Transitions == 0 {
		t.Fatalf("states=%d transitions=%d", r.States, r.Transitions)
	}
	if math.IsNaN(r.SteadyState) || r.SteadyState <= 0 {
		t.Fatalf("steady state = %v", r.SteadyState)
	}
	if r.Percent() != 100*r.TimeFraction {
		t.Fatal("Percent inconsistent")
	}
}

func TestAnalyzeUnknownMessage(t *testing.T) {
	if _, err := (Analyzer{}).AnalyzeContext(t.Context(), arch.Architecture1(), "nope", transform.Availability, transform.Unencrypted); !errors.Is(err, transform.ErrUnknownMessage) {
		t.Fatalf("err = %v", err)
	}
}

func TestSkipSteadyState(t *testing.T) {
	a := Analyzer{SkipSteadyState: true}
	r := analyze(t, a, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	if !math.IsNaN(r.SteadyState) {
		t.Fatalf("steady state computed despite skip: %v", r.SteadyState)
	}
}

// TestFigure5Shape asserts the qualitative claims of the paper's Figure 5
// (the acceptance criteria of DESIGN.md §6).
func TestFigure5Shape(t *testing.T) {
	an := Analyzer{SkipSteadyState: true}
	archs := arch.CaseStudy()
	get := func(ai int, cat transform.Category, prot transform.Protection) float64 {
		return analyze(t, an, archs[ai], cat, prot).TimeFraction
	}
	// Availability: protection-independent, A3 ≪ A2 ≤ A1.
	a1 := get(0, transform.Availability, transform.Unencrypted)
	a2 := get(1, transform.Availability, transform.Unencrypted)
	a3 := get(2, transform.Availability, transform.Unencrypted)
	if !(a3 < a2 && a2 < a1) {
		t.Fatalf("availability ordering violated: A1=%v A2=%v A3=%v", a1, a2, a3)
	}
	if a3 > a1/10 {
		t.Fatalf("FlexRay should be dramatically better: A1=%v A3=%v", a1, a3)
	}
	for _, prot := range []transform.Protection{transform.CMAC128, transform.AES128} {
		if v := get(0, transform.Availability, prot); math.Abs(v-a1) > 1e-12 {
			t.Fatalf("availability depends on protection %v: %v vs %v", prot, v, a1)
		}
	}
	// Confidentiality: CMAC must not help, AES must help.
	cu := get(0, transform.Confidentiality, transform.Unencrypted)
	cc := get(0, transform.Confidentiality, transform.CMAC128)
	ca := get(0, transform.Confidentiality, transform.AES128)
	if math.Abs(cu-cc) > 1e-12 {
		t.Fatalf("CMAC changed confidentiality: %v vs %v", cu, cc)
	}
	if !(ca < cu) {
		t.Fatalf("AES did not improve confidentiality: %v vs %v", ca, cu)
	}
	// ... but only modestly (the paper's counter-intuitive finding: the PA
	// compromise bypasses the crypto, so AES gives < 4x, not orders of
	// magnitude).
	if cu/ca > 4 {
		t.Fatalf("AES improvement implausibly large: %vx", cu/ca)
	}
	// Integrity: CMAC and AES both help, equally.
	iu := get(0, transform.Integrity, transform.Unencrypted)
	ic := get(0, transform.Integrity, transform.CMAC128)
	ia := get(0, transform.Integrity, transform.AES128)
	if !(ic < iu) || math.Abs(ic-ia) > 1e-12 {
		t.Fatalf("integrity protections wrong: unenc=%v cmac=%v aes=%v", iu, ic, ia)
	}
	// Unencrypted confidentiality coincides with availability on these
	// topologies (endpoint compromise implies bus exposure), as in the
	// paper's Figure 5 where both read 12.2% for Architecture 1.
	if math.Abs(cu-a1) > 1e-12 {
		t.Fatalf("unencrypted confidentiality %v != availability %v", cu, a1)
	}
}

func TestAnalyzeAllAndCompare(t *testing.T) {
	an := Analyzer{SkipSteadyState: true}
	rs, err := an.AnalyzeAllContext(t.Context(), arch.Architecture1(), arch.MessageM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 {
		t.Fatalf("AnalyzeAll returned %d results", len(rs))
	}
	all, err := an.CompareContext(t.Context(), arch.CaseStudy(), arch.MessageM)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 27 {
		t.Fatalf("Compare returned %d results", len(all))
	}
}

func TestHorizonScaling(t *testing.T) {
	// A longer horizon approaches the steady state from below for this
	// model (violated mass accumulates over time from a secure start).
	short := analyze(t, Analyzer{Horizon: 0.1, SkipSteadyState: true}, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	long := analyze(t, Analyzer{Horizon: 5, SkipSteadyState: true}, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	if !(short.TimeFraction < long.TimeFraction) {
		t.Fatalf("time fraction not increasing with horizon: %v vs %v", short.TimeFraction, long.TimeFraction)
	}
}

func TestCheckProperty(t *testing.T) {
	an := Analyzer{}
	res, err := an.CheckPropertyContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted,
		`P=? [ F<=1 "violated" ]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 || res.Value > 1 {
		t.Fatalf("P = %v", res.Value)
	}
	// The reward property must match AnalyzeContext's time fraction.
	rew, err := an.CheckPropertyContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted,
		`R{"violated_time"}=? [ C<=1 ]`)
	if err != nil {
		t.Fatal(err)
	}
	direct := analyze(t, Analyzer{SkipSteadyState: true}, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	if math.Abs(rew.Value-direct.TimeFraction) > 1e-9 {
		t.Fatalf("CSL reward %v != analyzer %v", rew.Value, direct.TimeFraction)
	}
}

func TestCheckPropertyParseError(t *testing.T) {
	an := Analyzer{}
	if _, err := an.CheckPropertyContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, `P=? [ F "nolabel" ]`); err == nil {
		t.Fatal("bad property accepted")
	}
}

func TestSweepPatchRateMonotone(t *testing.T) {
	an := Analyzer{}
	rates := LogSpace(0.5, 500, 7)
	pts, err := an.SweepContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Confidentiality, transform.Unencrypted,
		SweepPatchRate, arch.Telematics, "", rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimeFraction > pts[i-1].TimeFraction {
			t.Fatalf("patch sweep not decreasing at %v: %v -> %v",
				pts[i].Rate, pts[i-1].TimeFraction, pts[i].TimeFraction)
		}
	}
}

func TestSweepExploitRateMonotone(t *testing.T) {
	an := Analyzer{}
	rates := LogSpace(0.5, 500, 7)
	pts, err := an.SweepContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Confidentiality, transform.Unencrypted,
		SweepExploitRate, arch.Telematics, arch.BusInternet, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimeFraction < pts[i-1].TimeFraction {
			t.Fatalf("exploit sweep not increasing at %v", pts[i].Rate)
		}
	}
	// Saturation: the curve must stay below 1.
	if last := pts[len(pts)-1].TimeFraction; last >= 1 {
		t.Fatalf("time fraction %v out of range", last)
	}
}

func TestSweepDoesNotMutateInput(t *testing.T) {
	an := Analyzer{}
	a := arch.Architecture1()
	before := a.ECU(arch.Telematics).PatchRate
	_, err := an.SweepContext(t.Context(), a, arch.MessageM, transform.Availability, transform.Unencrypted,
		SweepPatchRate, arch.Telematics, "", []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.ECU(arch.Telematics).PatchRate != before {
		t.Fatal("sweep mutated the input architecture")
	}
}

func TestSweepErrors(t *testing.T) {
	an := Analyzer{}
	if _, err := an.SweepContext(t.Context(), arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted,
		SweepPatchRate, "nope", "", []float64{1}); !errors.Is(err, ErrSweepTarget) {
		t.Fatalf("err = %v", err)
	}
	if _, err := an.SweepContext(t.Context(), arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted,
		SweepExploitRate, arch.Telematics, "nobus", []float64{1}); !errors.Is(err, ErrSweepTarget) {
		t.Fatalf("err = %v", err)
	}
	if _, err := an.SweepContext(t.Context(), arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted,
		SweepPatchRate, arch.Telematics, "", []float64{-1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestLogSpace(t *testing.T) {
	pts := LogSpace(0.1, 1000, 5)
	if len(pts) != 5 {
		t.Fatalf("len = %d", len(pts))
	}
	if math.Abs(pts[0]-0.1) > 1e-12 || math.Abs(pts[4]-1000) > 1e-9 {
		t.Fatalf("endpoints: %v", pts)
	}
	// Constant ratio.
	r := pts[1] / pts[0]
	for i := 2; i < len(pts); i++ {
		if math.Abs(pts[i]/pts[i-1]-r) > 1e-9 {
			t.Fatalf("not log-spaced: %v", pts)
		}
	}
	if LogSpace(-1, 10, 3) != nil || LogSpace(1, 1, 3) != nil || LogSpace(1, 10, 0) != nil {
		t.Fatal("invalid input accepted")
	}
	if one := LogSpace(2, 10, 1); len(one) != 1 || one[0] != 2 {
		t.Fatalf("n=1: %v", one)
	}
}

func TestThresholdCrossing(t *testing.T) {
	pts := []SweepPoint{
		{Rate: 1, TimeFraction: 0.10},
		{Rate: 10, TimeFraction: 0.01},
		{Rate: 100, TimeFraction: 0.001},
	}
	x := ThresholdCrossing(pts, 0.005)
	if !(x > 10 && x < 100) {
		t.Fatalf("crossing = %v", x)
	}
	if !math.IsNaN(ThresholdCrossing(pts, 0.5)) {
		t.Fatal("no-crossing should be NaN")
	}
	if got := ThresholdCrossing(pts, 0.10); got != 1 {
		t.Fatalf("exact hit = %v", got)
	}
}

func TestLumpingPreservesResults(t *testing.T) {
	plain := Analyzer{SkipSteadyState: true}
	lumped := Analyzer{SkipSteadyState: true, UseLumping: true}
	for _, a := range arch.CaseStudy() {
		for _, cat := range Categories {
			rp := analyze(t, plain, a, cat, transform.AES128)
			rl := analyze(t, lumped, a, cat, transform.AES128)
			if math.Abs(rp.TimeFraction-rl.TimeFraction) > 1e-9 {
				t.Fatalf("%s/%s: plain %v vs lumped %v", a.Name, cat, rp.TimeFraction, rl.TimeFraction)
			}
			if rl.LumpedStates <= 0 || rl.LumpedStates > rl.States {
				t.Fatalf("lumped states = %d of %d", rl.LumpedStates, rl.States)
			}
			if rp.LumpedStates != 0 {
				t.Fatalf("plain result reports lumped states %d", rp.LumpedStates)
			}
		}
	}
}

func TestLumpingReducesStateCount(t *testing.T) {
	lumped := Analyzer{SkipSteadyState: true, UseLumping: true}
	r := analyze(t, lumped, arch.Architecture1(), transform.Availability, transform.Unencrypted)
	if r.LumpedStates >= r.States {
		t.Fatalf("no reduction: %d of %d", r.LumpedStates, r.States)
	}
	t.Logf("lumping: %d -> %d states", r.States, r.LumpedStates)
}

// Grid analyses solve their chains concurrently on up to GOMAXPROCS
// workers; every cell still matches its own AnalyzeContext bit for bit,
// steady state included.
func TestCompareMatchesPerCell(t *testing.T) {
	var an Analyzer
	archs := arch.CaseStudy()
	rs, err := an.CompareContext(t.Context(), archs, arch.MessageM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9*len(archs) {
		t.Fatalf("%d results, want %d", len(rs), 9*len(archs))
	}
	k := 0
	for _, ar := range archs {
		for _, cat := range Categories {
			for _, prot := range Protections {
				if err := sameResult(rs[k], analyze(t, an, ar, cat, prot)); err != nil {
					t.Errorf("%s/%s/%s: %v", ar.Name, cat, prot, err)
				}
				k++
			}
		}
	}
}

func TestAnalyzeAllPropagatesError(t *testing.T) {
	an := Analyzer{MaxStates: 5}
	if _, err := an.AnalyzeAllContext(t.Context(), arch.Architecture1(), arch.MessageM); !errors.Is(err, modular.ErrBudgetExceeded) {
		t.Fatalf("error %v, want the state budget's", err)
	}
}

func TestReliabilityThroughAnalyzer(t *testing.T) {
	a := arch.Architecture1()
	for i := range a.ECUs {
		a.ECUs[i].FailureRate = 0.5
		a.ECUs[i].RepairRate = 12
	}
	plain := Analyzer{SkipSteadyState: true}
	rel := Analyzer{SkipSteadyState: true, IncludeReliability: true}
	rp := analyze(t, plain, a, transform.Availability, transform.Unencrypted)
	rr := analyze(t, rel, a, transform.Availability, transform.Unencrypted)
	if rr.States <= rp.States {
		t.Fatalf("reliability did not grow the model: %d vs %d", rr.States, rp.States)
	}
	if rr.TimeFraction <= rp.TimeFraction {
		t.Fatalf("reliability did not increase availability exposure: %v vs %v",
			rr.TimeFraction, rp.TimeFraction)
	}
}
