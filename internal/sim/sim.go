// Package sim is a discrete-event (Gillespie / stochastic simulation
// algorithm) simulator for the CTMCs produced by the engine. It exists to
// cross-validate the numerical model-checking results by an entirely
// independent method: the expected time a security property is violated,
// reachability probabilities and steady-state fractions are estimated from
// sampled attack/patch trajectories and compared against uniformisation
// within statistical tolerance (DESIGN.md §7). It is a test oracle only: no
// production code calls it.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ctmc"
	"repro/internal/obs"
)

// ErrBadArgs reports invalid simulation parameters.
var ErrBadArgs = errors.New("sim: invalid arguments")

// Simulator samples trajectories of a CTMC.
type Simulator struct {
	chain *ctmc.Chain
	rng   *rand.Rand
}

// New returns a simulator with a deterministic seed (reproducible runs).
func New(chain *ctmc.Chain, seed int64) *Simulator {
	return &Simulator{chain: chain, rng: rand.New(rand.NewSource(seed))}
}

// Step samples the next (state, sojourn) pair from the current state. For
// absorbing states it returns the same state and +Inf.
func (s *Simulator) Step(state int) (next int, sojourn float64) {
	exit := s.chain.Exit[state]
	if exit == 0 {
		return state, math.Inf(1)
	}
	sojourn = s.rng.ExpFloat64() / exit
	// Sample the successor proportionally to its rate.
	u := s.rng.Float64() * exit
	cols, vals := s.chain.Rates.Row(state)
	var acc float64
	for k, j := range cols {
		acc += vals[k]
		if u < acc {
			return int(j), sojourn
		}
	}
	// Floating-point slack: the last successor.
	return int(cols[len(cols)-1]), sojourn
}

// TimeFraction estimates the expected fraction of [0, horizon] spent in the
// masked states over n independent trajectories from state init. It returns
// the mean and the standard error of the estimator.
func (s *Simulator) TimeFraction(init int, mask []bool, horizon float64, n int) (mean, stderr float64, err error) {
	if err := s.validate(init, mask); err != nil {
		return 0, 0, err
	}
	if horizon <= 0 || n <= 0 {
		return 0, 0, fmt.Errorf("%w: horizon %v, n %d", ErrBadArgs, horizon, n)
	}
	_, sp := obs.Start(context.Background(), "sim.time_fraction")
	defer sp.End()
	var sum, sumSq float64
	for trial := 0; trial < n; trial++ {
		frac := s.sampleFraction(init, mask, horizon)
		sum += frac
		sumSq += frac * frac
		if sp != nil && (trial+1)%4096 == 0 {
			sp.Progress(int64(trial+1), int64(n))
		}
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	stderr = math.Sqrt(variance / float64(n))
	sp.Int("paths", int64(n))
	sp.Float("mean", mean)
	// Half-width of the 95% confidence interval: the cross-validation
	// tolerance the trace reader cares about.
	sp.Float("ci_95", 1.96*stderr)
	return mean, stderr, nil
}

func (s *Simulator) sampleFraction(init int, mask []bool, horizon float64) float64 {
	t := 0.0
	state := init
	var inMask float64
	for t < horizon {
		next, sojourn := s.Step(state)
		dwell := sojourn
		if t+dwell > horizon {
			dwell = horizon - t
		}
		if mask[state] {
			inMask += dwell
		}
		t += sojourn
		state = next
	}
	return inMask / horizon
}

// ReachabilityWithin estimates P[reach mask within horizon] over n
// trajectories.
func (s *Simulator) ReachabilityWithin(init int, mask []bool, horizon float64, n int) (mean, stderr float64, err error) {
	if err := s.validate(init, mask); err != nil {
		return 0, 0, err
	}
	if horizon <= 0 || n <= 0 {
		return 0, 0, fmt.Errorf("%w: horizon %v, n %d", ErrBadArgs, horizon, n)
	}
	_, sp := obs.Start(context.Background(), "sim.reachability")
	defer sp.End()
	hits := 0
	for trial := 0; trial < n; trial++ {
		if s.sampleReach(init, mask, horizon) {
			hits++
		}
		if sp != nil && (trial+1)%4096 == 0 {
			sp.Progress(int64(trial+1), int64(n))
		}
	}
	p := float64(hits) / float64(n)
	se := math.Sqrt(p * (1 - p) / float64(n))
	sp.Int("paths", int64(n))
	sp.Float("mean", p)
	sp.Float("ci_95", 1.96*se)
	return p, se, nil
}

func (s *Simulator) sampleReach(init int, mask []bool, horizon float64) bool {
	if mask[init] {
		return true
	}
	t := 0.0
	state := init
	for {
		next, sojourn := s.Step(state)
		t += sojourn
		if t > horizon {
			return false
		}
		if mask[next] {
			return true
		}
		if next == state && math.IsInf(sojourn, 1) {
			return false
		}
		state = next
	}
}

func (s *Simulator) validate(init int, mask []bool) error {
	if init < 0 || init >= s.chain.N() {
		return fmt.Errorf("%w: init state %d of %d", ErrBadArgs, init, s.chain.N())
	}
	if len(mask) != s.chain.N() {
		return fmt.Errorf("%w: mask length %d, want %d", ErrBadArgs, len(mask), s.chain.N())
	}
	return nil
}
