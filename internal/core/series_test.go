package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/transform"
)

func TestTimeSeriesMonotoneQuantities(t *testing.T) {
	an := Analyzer{}
	times := []float64{0.25, 0.5, 1, 2, 5}
	pts, err := an.TimeSeries(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, times)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(times) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.ViolatedProbability < 0 || p.ViolatedProbability > 1 {
			t.Fatalf("instantaneous out of range: %+v", p)
		}
		if p.EverViolated+1e-9 < p.ViolatedProbability {
			t.Fatalf("ever < instantaneous at %v", p.T)
		}
		if p.EverViolated+1e-9 < p.CumulativeFraction {
			t.Fatalf("ever < cumulative fraction at %v", p.T)
		}
		if i > 0 && pts[i].EverViolated < pts[i-1].EverViolated-1e-9 {
			t.Fatalf("first-violation probability decreased at %v", p.T)
		}
	}
	// Long-horizon cumulative fraction approaches the instantaneous level
	// (steady behaviour), both nonzero.
	last := pts[len(pts)-1]
	if last.CumulativeFraction <= 0 {
		t.Fatalf("no accumulation: %+v", last)
	}
}

// TimeSeries takes its cumulative column from one reward series extended
// time by time; every value must equal a per-time ExpectedTimeFractionContext
// call on the same chain.
func TestTimeSeriesCumulativeMatchesPerTime(t *testing.T) {
	an := Analyzer{NMax: 2}
	times := []float64{0.25, 0.5, 1, 2, 5, 10, 15}
	pts, err := an.TimeSeries(arch.Architecture1(), arch.MessageM, transform.Confidentiality, transform.AES128, times)
	if err != nil {
		t.Fatal(err)
	}
	p, err := an.PrepareContext(context.Background(), arch.Architecture1(), arch.MessageM, transform.Confidentiality, transform.AES128)
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		want, err := p.Explored.Chain.ExpectedTimeFractionContext(t.Context(), p.chain.init, p.mask, tm, an.withDefaults().Accuracy)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloat(pts[i].CumulativeFraction, want) {
			t.Errorf("t = %g: cumulative fraction %.17g, per-time call %.17g", tm, pts[i].CumulativeFraction, want)
		}
	}
}

func TestTimeSeriesValidation(t *testing.T) {
	an := Analyzer{}
	if _, err := an.TimeSeries(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, nil); err == nil {
		t.Fatal("empty times accepted")
	}
	if _, err := an.TimeSeries(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, []float64{2, 1}); err == nil {
		t.Fatal("unsorted times accepted")
	}
	if _, err := an.TimeSeries(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, []float64{0, 1}); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestSensitivities(t *testing.T) {
	an := Analyzer{NMax: 1} // keep it fast: 2 analyses per parameter
	sens, err := an.Sensitivities(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	// 4 patch rates + 6 interfaces.
	if len(sens) != 10 {
		t.Fatalf("results = %d", len(sens))
	}
	byKey := make(map[string]SensitivityResult)
	for i, s := range sens {
		byKey[s.Component+"/"+s.Param] = s
		if i > 0 && math.Abs(s.Elasticity) > math.Abs(sens[i-1].Elasticity)+1e-12 {
			t.Fatal("not sorted by |elasticity|")
		}
	}
	// Signs: raising the telematics patch rate reduces exposure; raising
	// its internet exploit rate increases it.
	if s := byKey["3G/patch"]; s.Elasticity >= 0 {
		t.Fatalf("3G patch elasticity = %v, want negative", s.Elasticity)
	}
	if s := byKey["3G/exploit:NET"]; s.Elasticity <= 0 {
		t.Fatalf("3G NET exploit elasticity = %v, want positive", s.Elasticity)
	}
	// The entry point must matter more than the power steering.
	if math.Abs(byKey["3G/exploit:NET"].Elasticity) < math.Abs(byKey["PS/exploit:CAN2"].Elasticity) {
		t.Fatal("entry point less influential than leaf ECU")
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
