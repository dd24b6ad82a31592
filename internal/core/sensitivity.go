package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/transform"
)

// SensitivityResult quantifies how strongly the message's exploitable time
// reacts to one component rate: the elasticity
// ∂ log(exploitable time) / ∂ log(rate), estimated by a central finite
// difference on a ±20 % perturbation. Negative values mean hardening the
// parameter (raising a patch rate) helps; positive values mean the
// parameter feeds the exposure (exploit rates).
type SensitivityResult struct {
	Component string
	// Param is "patch" (ECU patch rate) or "exploit:<bus>" (interface
	// exploitation rate).
	Param      string
	Rate       float64
	Elasticity float64
}

// Sensitivities ranks every ECU patch rate and every interface exploit rate
// by the magnitude of its elasticity — the quantitative form of the paper's
// question "how much effort should be invested in the consideration of
// security during implementation of specific components?". Most influential
// first.
func (a Analyzer) Sensitivities(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) ([]SensitivityResult, error) {
	a.SkipSteadyState = true
	ctx := context.Background()
	base, err := a.AnalyzeContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	if base.TimeFraction <= 0 {
		return nil, fmt.Errorf("core: baseline exploitable time is zero; elasticities undefined")
	}
	const h = 0.2 // ±20 % perturbation
	evalAt := func(mutate func(c *arch.Architecture, factor float64)) (float64, error) {
		lo := ar.Clone()
		mutate(lo, 1-h)
		rlo, err := a.AnalyzeContext(ctx, lo, msgName, cat, prot)
		if err != nil {
			return 0, err
		}
		hi := ar.Clone()
		mutate(hi, 1+h)
		rhi, err := a.AnalyzeContext(ctx, hi, msgName, cat, prot)
		if err != nil {
			return 0, err
		}
		if rlo.TimeFraction <= 0 || rhi.TimeFraction <= 0 {
			return 0, nil
		}
		// Central difference in log-log space.
		return (math.Log(rhi.TimeFraction) - math.Log(rlo.TimeFraction)) /
			(math.Log(1+h) - math.Log(1-h)), nil
	}

	var out []SensitivityResult
	for i := range ar.ECUs {
		e := &ar.ECUs[i]
		name := e.Name
		patchRate, err := e.EffectivePatchRate()
		if err != nil {
			return nil, err
		}
		el, err := evalAt(func(c *arch.Architecture, f float64) {
			c.ECU(name).PatchRate = patchRate * f
		})
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity of %s patch rate: %w", name, err)
		}
		out = append(out, SensitivityResult{
			Component: name, Param: "patch", Rate: patchRate, Elasticity: el,
		})
		for _, ifc := range e.Interfaces {
			bus := ifc.Bus
			rate := ifc.ExploitRate
			if rate <= 0 {
				continue
			}
			el, err := evalAt(func(c *arch.Architecture, f float64) {
				ce := c.ECU(name)
				for k := range ce.Interfaces {
					if ce.Interfaces[k].Bus == bus {
						ce.Interfaces[k].ExploitRate = rate * f
					}
				}
			})
			if err != nil {
				return nil, fmt.Errorf("core: sensitivity of %s/%s exploit rate: %w", name, bus, err)
			}
			out = append(out, SensitivityResult{
				Component: name, Param: "exploit:" + bus, Rate: rate, Elasticity: el,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Elasticity) > math.Abs(out[j].Elasticity)
	})
	return out, nil
}
