package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/transform"
)

// ComponentResult quantifies one architecture element's exposure: the
// expected fraction of the horizon during which the ECU (or bus) is
// exploited/exploitable, and the probability it is hit at least once. The
// paper proposes exactly this per-element view ("such an analysis can be
// performed for every element in the architecture", Section 4.2).
type ComponentResult struct {
	Name string
	Kind string // "ecu" or "bus"
	// ExploitedTimeFraction is the expected fraction of the horizon the
	// component is exploited (ECUs) / exploitable (buses).
	ExploitedTimeFraction float64
	// EverExploited is P[component exploited at least once within horizon].
	EverExploited float64
}

// AnalyzeComponents computes the per-component exposure of every ECU and
// bus under the model generated for the given message/category/protection.
func (a Analyzer) AnalyzeComponents(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) ([]ComponentResult, error) {
	a = a.withDefaults()
	ctx := context.Background()
	p, err := a.PrepareContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	ex := p.Explored
	var (
		out   []ComponentResult
		masks [][]bool
	)
	add := func(label, name, kind string) error {
		mask, err := ex.LabelMask(label)
		if err != nil {
			return err
		}
		out = append(out, ComponentResult{Name: name, Kind: kind})
		masks = append(masks, mask)
		return nil
	}
	for i := range ar.ECUs {
		if err := add("exp_"+ar.ECUs[i].Name, ar.ECUs[i].Name, "ecu"); err != nil {
			return nil, err
		}
	}
	for i := range ar.Buses {
		if err := add("exp_bus_"+ar.Buses[i].Name, ar.Buses[i].Name, "bus"); err != nil {
			return nil, err
		}
	}
	// One uniformisation pass gives every component's fraction, each
	// bit-identical to a one-mask pass.
	fracs, err := ex.Chain.ExpectedTimeFractionsContext(ctx, p.chain.init, masks, a.Horizon, a.Accuracy)
	if err != nil {
		return nil, fmt.Errorf("core: components: %w", err)
	}
	for i := range out {
		out[i].ExploitedTimeFraction = fracs[i]
		out[i].EverExploited, err = ex.Chain.TimeBoundedReachabilityContext(ctx, p.chain.init, masks[i], a.Horizon, a.Accuracy)
		if err != nil {
			return nil, fmt.Errorf("core: component %s: %w", out[i].Name, err)
		}
	}
	// Most exposed first: the ranking decision makers act on.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].ExploitedTimeFraction > out[j].ExploitedTimeFraction
	})
	return out, nil
}
