package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/transform"
)

func TestAttackPathsTopK(t *testing.T) {
	an := Analyzer{}
	paths, err := an.AttackPaths(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Probabilities non-increasing.
	for i := 1; i < len(paths); i++ {
		if paths[i].Probability > paths[i-1].Probability+1e-12 {
			t.Fatalf("path %d more probable than %d: %v > %v",
				i, i-1, paths[i].Probability, paths[i-1].Probability)
		}
	}
	// The best path agrees with MostProbableAttackPath.
	best, err := an.MostProbableAttackPath(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(paths[0].Probability-best.Probability) > 1e-12 {
		t.Fatalf("top-1 %v != single best %v", paths[0].Probability, best.Probability)
	}
	// Paths must be pairwise distinct.
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		for _, s := range p.Steps {
			key += s.State + "|"
		}
		if seen[key] {
			t.Fatal("duplicate path returned")
		}
		seen[key] = true
	}
}

func TestAttackPathsSinglePath(t *testing.T) {
	// Architecture 1 availability has exactly one 1-step path class at the
	// top (3G NET exploit reaches a violated state immediately). Asking for
	// many paths still returns distinct ones.
	an := Analyzer{NMax: 1}
	paths, err := an.AttackPaths(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 1 || len(paths[0].Steps) != 1 {
		t.Fatalf("top path should be the single 3G exploit, got %+v", paths[0])
	}
}

func TestAttackPathsUnreachable(t *testing.T) {
	a := arch.Architecture3()
	a.Bus(arch.BusFlexRay).Guardian.ExploitRate = 0
	an := Analyzer{}
	if _, err := an.AttackPaths(a, arch.MessageM,
		transform.Availability, transform.Unencrypted, 3); !errors.Is(err, ErrNoAttackPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestCriticalComponentsArch3(t *testing.T) {
	an := Analyzer{NMax: 1}
	ccs, err := an.CriticalComponents(arch.Architecture3(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CriticalComponent{}
	for _, c := range ccs {
		byName[c.Name] = c
	}
	// Hardening the bus guardian blocks the entire FlexRay attack.
	if !byName["guardian:FR"].Blocks {
		t.Fatalf("guardian hardening should block: %+v", byName["guardian:FR"])
	}
	// Hardening the telematics unit blocks too (it is the only entry).
	if !byName[arch.Telematics].Blocks {
		t.Fatalf("telematics hardening should block: %+v", byName[arch.Telematics])
	}
	// Hardening the power steering alone cannot block the attack.
	if byName[arch.PowerSteering].Blocks {
		t.Fatal("PS hardening cannot block the attack")
	}
	// Sorted ascending by residual exposure.
	for i := 1; i < len(ccs); i++ {
		if ccs[i].ResidualTimeFraction < ccs[i-1].ResidualTimeFraction-1e-15 {
			t.Fatal("not sorted by residual exposure")
		}
	}
}

func TestCriticalComponentsResidualConsistency(t *testing.T) {
	an := Analyzer{NMax: 1}
	base, err := an.AnalyzeContext(t.Context(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	ccs, err := an.CriticalComponents(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ccs {
		if c.ResidualTimeFraction > base.TimeFraction+1e-12 {
			t.Fatalf("hardening %s increased exposure: %v > %v",
				c.Name, c.ResidualTimeFraction, base.TimeFraction)
		}
		if c.Blocks && c.ResidualTimeFraction != 0 {
			t.Fatalf("%s blocks but residual %v", c.Name, c.ResidualTimeFraction)
		}
	}
}
