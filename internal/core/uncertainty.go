package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/transform"
)

// UncertaintyResult summarises how the exploitable-time metric responds to
// uncertainty in the component assessment. The paper derives point rates
// from CVSS scores and ASIL levels; both are coarse instruments, so a
// decision based on the point estimate alone is fragile. This analysis
// perturbs every exploit and patch rate independently and reports the
// resulting distribution.
type UncertaintyResult struct {
	// Nominal is the unperturbed exploitable-time fraction.
	Nominal float64
	// Samples is the number of perturbed analyses.
	Samples int
	// Mean and quantiles of the perturbed exploitable-time fraction.
	Mean float64
	P05  float64
	P50  float64
	P95  float64
}

// UncertaintyOptions configures the perturbation study.
type UncertaintyOptions struct {
	// Samples is the number of perturbed architectures (default 50).
	Samples int
	// Spread is the multiplicative log-uniform half-range: each rate is
	// scaled by a factor drawn uniformly in [1/(1+Spread), 1+Spread]
	// (default 0.5, i.e. rates off by up to ±50 %).
	Spread float64
	// Seed makes the study reproducible.
	Seed int64
}

func (o UncertaintyOptions) withDefaults() UncertaintyOptions {
	if o.Samples <= 0 {
		o.Samples = 50
	}
	if o.Spread <= 0 {
		o.Spread = 0.5
	}
	return o
}

// Uncertainty runs the perturbation study for one combination.
func (a Analyzer) Uncertainty(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection, opts UncertaintyOptions) (*UncertaintyResult, error) {
	opts = opts.withDefaults()
	a.SkipSteadyState = true
	ctx := context.Background()
	nominal, err := a.AnalyzeContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	factor := func() float64 {
		// Log-uniform in [1/(1+s), 1+s]: symmetric in the multiplicative
		// sense, matching how rate assessments err.
		lo := math.Log(1 / (1 + opts.Spread))
		hi := math.Log(1 + opts.Spread)
		return math.Exp(lo + rng.Float64()*(hi-lo))
	}
	fractions := make([]float64, 0, opts.Samples)
	for s := 0; s < opts.Samples; s++ {
		c := ar.Clone()
		for i := range c.ECUs {
			e := &c.ECUs[i]
			base, err := e.EffectivePatchRate()
			if err != nil {
				return nil, err
			}
			e.PatchRate = base * factor()
			for k := range e.Interfaces {
				e.Interfaces[k].ExploitRate *= factor()
			}
		}
		for i := range c.Buses {
			if g := c.Buses[i].Guardian; g != nil {
				g.ExploitRate *= factor()
				g.PatchRate *= factor()
			}
		}
		r, err := a.AnalyzeContext(ctx, c, msgName, cat, prot)
		if err != nil {
			return nil, fmt.Errorf("core: uncertainty sample %d: %w", s, err)
		}
		fractions = append(fractions, r.TimeFraction)
	}
	sort.Float64s(fractions)
	var sum float64
	for _, f := range fractions {
		sum += f
	}
	return &UncertaintyResult{
		Nominal: nominal.TimeFraction,
		Samples: opts.Samples,
		Mean:    sum / float64(opts.Samples),
		P05:     quantile(fractions, 0.05),
		P50:     quantile(fractions, 0.50),
		P95:     quantile(fractions, 0.95),
	}, nil
}

// quantile interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
