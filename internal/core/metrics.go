package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/linalg"
	"repro/internal/transform"
)

// SecurityMetrics extends the headline exploitable-time number with the
// episode-level quantities decision makers ask about: how long until the
// first incident, and how many incidents per year.
type SecurityMetrics struct {
	// ExploitableTimeFraction is the paper's metric (as in Result).
	ExploitableTimeFraction float64
	// MeanTimeToViolation is the expected time (years) until the message's
	// security is violated for the first time; +Inf when violation is not
	// almost-sure (e.g. a FlexRay guardian that can never be exploited).
	MeanTimeToViolation float64
	// ViolationFrequency is the expected number of violation episodes
	// (secure → violated crossings) within the horizon.
	ViolationFrequency float64
	// FirstViolationProbability is P[violated at least once within the
	// horizon].
	FirstViolationProbability float64
}

// Metrics computes the episode-level security metrics for one
// architecture / message / category / protection combination.
func (a Analyzer) Metrics(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) (*SecurityMetrics, error) {
	a = a.withDefaults()
	ctx := context.Background()
	p, err := a.PrepareContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	chain, violated, init := p.Explored.Chain, p.mask, p.chain.init

	frac, err := chain.ExpectedTimeFractionContext(ctx, init, violated, a.Horizon, a.Accuracy)
	if err != nil {
		return nil, err
	}
	first, err := chain.TimeBoundedReachabilityContext(ctx, init, violated, a.Horizon, a.Accuracy)
	if err != nil {
		return nil, err
	}
	// Mean time to first violation: expected accumulated time (reward 1
	// everywhere) until a violated state is reached.
	ones := linalg.NewVector(chain.N())
	ones.Fill(1)
	mttv, err := chain.ReachabilityRewardContext(ctx, init, ones, violated)
	if err != nil {
		return nil, fmt.Errorf("core: mean time to violation: %w", err)
	}
	// Violation frequency: expected number of secure → violated crossings
	// in [0, horizon]. The crossing intensity from a secure state i is
	// Σ_{j violated} R(i,j), so the expected count is the cumulative reward
	// of that intensity.
	intensity := linalg.NewVector(chain.N())
	for i := 0; i < chain.N(); i++ {
		if violated[i] {
			continue
		}
		cols, vals := chain.Rates.Row(i)
		for k, j := range cols {
			if violated[j] {
				intensity[i] += vals[k]
			}
		}
	}
	freq, err := chain.CumulativeRewardContext(ctx, init, intensity, a.Horizon, a.Accuracy)
	if err != nil {
		return nil, fmt.Errorf("core: violation frequency: %w", err)
	}
	return &SecurityMetrics{
		ExploitableTimeFraction:   frac,
		MeanTimeToViolation:       mttv,
		ViolationFrequency:        freq,
		FirstViolationProbability: first,
	}, nil
}
