package core

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/transform"
)

func TestMetricsArchitecture1(t *testing.T) {
	an := Analyzer{}
	m, err := an.Metrics(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExploitableTimeFraction <= 0 || m.ExploitableTimeFraction >= 1 {
		t.Fatalf("fraction = %v", m.ExploitableTimeFraction)
	}
	if m.MeanTimeToViolation <= 0 || math.IsInf(m.MeanTimeToViolation, 1) {
		t.Fatalf("MTTV = %v", m.MeanTimeToViolation)
	}
	if m.ViolationFrequency <= 0 {
		t.Fatalf("frequency = %v", m.ViolationFrequency)
	}
	if m.FirstViolationProbability <= 0 || m.FirstViolationProbability > 1 {
		t.Fatalf("first violation = %v", m.FirstViolationProbability)
	}
	// Consistency: fraction from AnalyzeContext must match.
	r := analyze(t, Analyzer{SkipSteadyState: true}, arch.Architecture1(),
		transform.Availability, transform.Unencrypted)
	if math.Abs(m.ExploitableTimeFraction-r.TimeFraction) > 1e-12 {
		t.Fatalf("fraction mismatch: %v vs %v", m.ExploitableTimeFraction, r.TimeFraction)
	}
}

// TestMetricsMTTVAnalytic: on Architecture 1 availability, the first
// violation coincides with the first 3G exploit (the violated set is
// entered exactly when any ECU is exploited, and only the 3G NET interface
// can fire first), so MTTV = 1/η_NET and the short-horizon first-violation
// probability matches 1 − e^{−ηT}.
func TestMetricsMTTVAnalytic(t *testing.T) {
	an := Analyzer{}
	m, err := an.Metrics(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / arch.RateTelematics3G
	if math.Abs(m.MeanTimeToViolation-want) > 1e-9 {
		t.Fatalf("MTTV = %v, want %v", m.MeanTimeToViolation, want)
	}
	wantFirst := 1 - math.Exp(-arch.RateTelematics3G*1)
	if math.Abs(m.FirstViolationProbability-wantFirst) > 1e-9 {
		t.Fatalf("first violation = %v, want %v", m.FirstViolationProbability, wantFirst)
	}
}

func TestMetricsInfiniteMTTVWhenUnreachable(t *testing.T) {
	a := arch.Architecture3()
	a.Bus(arch.BusFlexRay).Guardian.ExploitRate = 0
	an := Analyzer{}
	m, err := an.Metrics(a, arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m.MeanTimeToViolation, 1) {
		t.Fatalf("MTTV = %v, want +Inf", m.MeanTimeToViolation)
	}
	if m.ViolationFrequency != 0 || m.FirstViolationProbability != 0 {
		t.Fatalf("metrics nonzero for unreachable violation: %+v", m)
	}
}

func TestMetricsFrequencyVsFirstProbability(t *testing.T) {
	// The expected number of episodes is at least the probability of one
	// episode (Markov inequality direction).
	an := Analyzer{}
	m, err := an.Metrics(arch.Architecture2(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	if m.ViolationFrequency < m.FirstViolationProbability-1e-9 {
		t.Fatalf("frequency %v < first-violation probability %v",
			m.ViolationFrequency, m.FirstViolationProbability)
	}
}

// TestStatisticalViolationTest checks the Gillespie simulator's sequential
// probability ratio test on a prepared chain against the numeric answer.
func TestStatisticalViolationTest(t *testing.T) {
	p, err := Analyzer{}.PrepareContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	// P[violated at least once within the 1-year horizon] ≥ theta, from a
	// fresh simulator seeded with 99.
	test := func(theta float64) (sim.SPRTResult, error) {
		return sim.New(p.Explored.Chain, 99).TestReachabilityWithin(p.Explored.InitIndex(), p.mask, 1, theta, sim.SPRTOptions{})
	}
	// Numeric answer for A1 availability: P[ever violated within 1y] ≈ 0.85.
	res, err := test(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != sim.VerdictAccept {
		t.Fatalf("P ≥ 0.5 should hold (true ≈ 0.85): %v", res.Verdict)
	}
	res, err = test(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != sim.VerdictReject {
		t.Fatalf("P ≥ 0.95 should fail (true ≈ 0.85): %v", res.Verdict)
	}
}
