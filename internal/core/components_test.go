package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/transform"
)

func TestAnalyzeComponents(t *testing.T) {
	an := Analyzer{}
	comps, err := an.AnalyzeComponents(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ECUs + 3 buses.
	if len(comps) != 7 {
		t.Fatalf("components = %d", len(comps))
	}
	byName := make(map[string]ComponentResult)
	for _, c := range comps {
		byName[c.Name] = c
		if c.ExploitedTimeFraction < 0 || c.ExploitedTimeFraction > 1 {
			t.Fatalf("%s: fraction %v", c.Name, c.ExploitedTimeFraction)
		}
		if c.EverExploited+1e-9 < c.ExploitedTimeFraction {
			t.Fatalf("%s: ever (%v) < fraction (%v)", c.Name, c.EverExploited, c.ExploitedTimeFraction)
		}
	}
	// The internet bus is always exploitable.
	if net := byName[arch.BusInternet]; math.Abs(net.ExploitedTimeFraction-1) > 1e-9 {
		t.Fatalf("internet bus fraction = %v", net.ExploitedTimeFraction)
	}
	// The telematics unit is the entry point: it must be hit more than the
	// deeply nested power steering.
	if byName[arch.Telematics].ExploitedTimeFraction <= byName[arch.PowerSteering].ExploitedTimeFraction {
		t.Fatalf("3G (%v) should exceed PS (%v)",
			byName[arch.Telematics].ExploitedTimeFraction,
			byName[arch.PowerSteering].ExploitedTimeFraction)
	}
	// Sorted by exposure, descending.
	for i := 1; i < len(comps); i++ {
		if comps[i].ExploitedTimeFraction > comps[i-1].ExploitedTimeFraction {
			t.Fatal("components not sorted by exposure")
		}
	}
}

// TestComponentFractionsMatchOnePass checks the one-pass fractions of
// AnalyzeComponents equal, bit for bit, a one-mask pass per component on
// Architectures 1–3.
func TestComponentFractionsMatchOnePass(t *testing.T) {
	ctx := t.Context()
	an := Analyzer{}.withDefaults()
	for _, a := range []*arch.Architecture{arch.Architecture1(), arch.Architecture2(), arch.Architecture3()} {
		comps, err := an.AnalyzeComponents(a, arch.MessageM, transform.Confidentiality, transform.Unencrypted)
		if err != nil {
			t.Fatal(err)
		}
		p, err := an.PrepareContext(ctx, a, arch.MessageM, transform.Confidentiality, transform.Unencrypted)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range comps {
			label := "exp_" + c.Name
			if c.Kind == "bus" {
				label = "exp_bus_" + c.Name
			}
			mask, err := p.Explored.LabelMask(label)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Explored.Chain.ExpectedTimeFractionContext(ctx, p.chain.init, mask, an.Horizon, an.Accuracy)
			if err != nil {
				t.Fatal(err)
			}
			if c.ExploitedTimeFraction != want {
				t.Errorf("%s %s: fraction %v, want the one-mask %v", a.Name, c.Name, c.ExploitedTimeFraction, want)
			}
		}
	}
}

func TestMostProbableAttackPathArch1(t *testing.T) {
	an := Analyzer{}
	path, err := an.MostProbableAttackPath(arch.Architecture1(), arch.MessageM,
		transform.Confidentiality, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Steps) == 0 {
		t.Fatal("empty path")
	}
	// The first step must be the internet entry (the only enabled exploit).
	if !strings.Contains(path.Steps[0].Description, "3G_NET") {
		t.Fatalf("first step = %q, want the 3G internet exploit", path.Steps[0].Description)
	}
	if path.Probability <= 0 || path.Probability > 1 {
		t.Fatalf("path probability = %v", path.Probability)
	}
	// Rendering includes every step.
	s := path.String()
	if !strings.Contains(s, "1.") || !strings.Contains(s, "path probability") {
		t.Fatalf("render: %q", s)
	}
}

func TestMostProbableAttackPathFlexRayNeedsGuardian(t *testing.T) {
	an := Analyzer{}
	path, err := an.MostProbableAttackPath(arch.Architecture3(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range path.Steps {
		if strings.Contains(s.Description, "bus guardian") {
			found = true
		}
	}
	if !found {
		t.Fatalf("FlexRay attack path misses the bus guardian:\n%s", path)
	}
}

func TestMostProbableAttackPathUnreachable(t *testing.T) {
	a := arch.Architecture3()
	a.Bus(arch.BusFlexRay).Guardian.ExploitRate = 0
	an := Analyzer{}
	if _, err := an.MostProbableAttackPath(a, arch.MessageM,
		transform.Availability, transform.Unencrypted); !errors.Is(err, ErrNoAttackPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttackPathProbabilityMatchesSteps(t *testing.T) {
	an := Analyzer{}
	path, err := an.MostProbableAttackPath(arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1.0
	for _, s := range path.Steps {
		prod *= s.Probability
	}
	if math.Abs(prod-path.Probability) > 1e-12 {
		t.Fatalf("product %v != reported %v", prod, path.Probability)
	}
}
