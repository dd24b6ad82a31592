package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/transform"
)

// TimePoint is one point of a violated-over-time curve.
type TimePoint struct {
	// T is the sampling time in years.
	T float64
	// ViolatedProbability is P[message violated at time T] (instantaneous).
	ViolatedProbability float64
	// EverViolated is P[violated at least once within T].
	EverViolated float64
	// CumulativeFraction is the expected fraction of [0, T] spent violated.
	CumulativeFraction float64
}

// TimeSeries samples how the message's exposure develops over a vehicle's
// life: the instantaneous violation probability, the first-violation
// probability and the cumulated exploitable-time fraction at each sampling
// time. Times must be positive and ascending. The cumulative column comes
// from the chain's one reward series, extended to each time in turn, so
// the run costs the products of the last time's window, not the sum over
// all times.
func (a Analyzer) TimeSeries(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection, times []float64) ([]TimePoint, error) {
	a = a.withDefaults()
	if len(times) == 0 {
		return nil, fmt.Errorf("core: no sampling times")
	}
	if !sort.Float64sAreSorted(times) {
		return nil, fmt.Errorf("core: sampling times must be ascending")
	}
	if times[0] <= 0 {
		return nil, fmt.Errorf("core: sampling times must be positive, got %v", times[0])
	}
	ctx := context.Background()
	p, err := a.PrepareContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	chain, mask, init := p.Explored.Chain, p.mask, p.chain.init
	labels, masks := []string{p.label}, [][]bool{mask}
	out := make([]TimePoint, 0, len(times))
	for _, t := range times {
		pi, err := chain.TransientContext(ctx, init, t, a.Accuracy)
		if err != nil {
			return nil, err
		}
		var inst float64
		for i, m := range mask {
			if m {
				inst += pi[i]
			}
		}
		ever, err := chain.TimeBoundedReachabilityContext(ctx, init, mask, t, a.Accuracy)
		if err != nil {
			return nil, err
		}
		frac, err := p.chain.series.FractionsContext(ctx, labels, masks, t, a.Accuracy)
		if err != nil {
			return nil, err
		}
		out = append(out, TimePoint{
			T:                   t,
			ViolatedProbability: inst,
			EverViolated:        ever,
			CumulativeFraction:  frac[0],
		})
	}
	return out, nil
}
