// Package foxglynn computes truncated Poisson probability weights with the
// Fox–Glynn algorithm (B. L. Fox, P. W. Glynn, "Computing Poisson
// Probabilities", CACM 31(4), 1988), the standard building block of CTMC
// uniformisation: the transient distribution at time t is a Poisson(q·t)
// mixture of DTMC step distributions, and Fox–Glynn provides the left/right
// truncation points plus numerically safe weights.
//
// This implementation follows the "simple and efficient" reformulation by
// Jansen (2011): weights are computed by recurrence outward from the mode,
// scaled to avoid underflow, with truncation chosen so the discarded mass is
// below the requested accuracy.
package foxglynn

import (
	"errors"
	"fmt"
	"math"
)

// Result holds the truncated, normalised Poisson weights for a rate lambda:
// Weights[k] approximates Poisson(lambda, Left+k) for Left ≤ k ≤ Right, and
// the weights sum to one (the tail mass below the accuracy threshold is
// redistributed by normalisation, which keeps downstream mixtures
// probability-preserving).
type Result struct {
	Left, Right int
	Weights     []float64
}

// Stats summarises a computed truncation window for instrumentation and
// tests: the window bounds, its width in terms, and the total weight mass
// before normalisation is not retained (weights are returned normalised).
type Stats struct {
	// Left and Right are the inclusive truncation points.
	Left, Right int
	// Terms is the number of retained weights, Right − Left + 1.
	Terms int
}

// Stats returns the truncation-window summary of the result, so callers
// (spans, window-growth tests) never recompute or re-derive it from the
// weight slice.
func (r *Result) Stats() Stats {
	return Stats{Left: r.Left, Right: r.Right, Terms: len(r.Weights)}
}

// ErrBadLambda reports a non-finite or negative rate.
var ErrBadLambda = errors.New("foxglynn: lambda must be finite and non-negative")

// ErrBadAccuracy reports an accuracy outside (0, 1).
var ErrBadAccuracy = errors.New("foxglynn: accuracy must be in (0, 1)")

// Compute returns the truncation window and weights for Poisson(lambda) with
// total discarded probability mass at most accuracy.
func Compute(lambda, accuracy float64) (*Result, error) {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadLambda, lambda)
	}
	if !(accuracy > 0 && accuracy < 1) {
		return nil, fmt.Errorf("%w: %v", ErrBadAccuracy, accuracy)
	}
	if lambda == 0 {
		// Degenerate: all mass on k = 0.
		return &Result{Left: 0, Right: 0, Weights: []float64{1}}, nil
	}
	if lambda < 25 {
		// Small-lambda regime: direct evaluation is safe (no underflow for
		// e^-25 ≈ 1.4e-11 times moderate terms) and exact truncation is easy.
		return computeDirect(lambda, accuracy)
	}
	return computeScaled(lambda, accuracy)
}

// computeDirect evaluates the Poisson pmf by the forward recurrence
// p(k+1) = p(k)·λ/(k+1), truncating both tails at accuracy/2.
func computeDirect(lambda, accuracy float64) (*Result, error) {
	tail := accuracy / 2
	p := math.Exp(-lambda)
	k := 0
	var cum float64
	// Skip the left tail.
	for cum+p < tail {
		cum += p
		k++
		p *= lambda / float64(k)
	}
	left := k
	var weights []float64
	var mass float64
	// Accumulate until the remaining right tail is below tail.
	for mass+cum < 1-tail {
		weights = append(weights, p)
		mass += p
		k++
		p *= lambda / float64(k)
		if p == 0 {
			break
		}
	}
	r := &Result{Left: left, Right: left + len(weights) - 1, Weights: weights}
	normalize(r.Weights)
	return r, nil
}

// computeScaled implements the large-lambda regime: find the mode, choose
// conservative truncation points from Chernoff-style bounds, run the
// recurrence outward from the mode with a large scaling constant, then
// normalise.
func computeScaled(lambda, accuracy float64) (*Result, error) {
	mode := int(math.Floor(lambda))
	// Truncation half-width: for Poisson, mass beyond mode ± a·sqrt(lambda)
	// decays like exp(-a²/2). Choose a so exp(-a²/2) ≤ accuracy/4, then pad.
	a := math.Sqrt(-2*math.Log(accuracy/4)) + 1
	halfWidth := int(math.Ceil(a*math.Sqrt(lambda))) + 1
	left := mode - halfWidth
	if left < 0 {
		left = 0
	}
	right := mode + halfWidth
	n := right - left + 1
	weights := make([]float64, n)
	// Scale the mode weight up; everything is normalised at the end, so only
	// ratios matter and overflow/underflow is avoided.
	const scale = 1e+250
	weights[mode-left] = scale
	// Downward recurrence: p(k-1) = p(k)·k/λ.
	for k := mode; k > left; k-- {
		weights[k-1-left] = weights[k-left] * float64(k) / lambda
	}
	// Upward recurrence: p(k+1) = p(k)·λ/(k+1).
	for k := mode; k < right; k++ {
		weights[k+1-left] = weights[k-left] * lambda / float64(k+1)
	}
	r := &Result{Left: left, Right: right, Weights: weights}
	normalize(r.Weights)
	// Trim numerically-zero tails so callers iterate only over meaningful
	// weights.
	lo, hi := 0, len(r.Weights)-1
	for lo < hi && r.Weights[lo] == 0 {
		lo++
	}
	for hi > lo && r.Weights[hi] == 0 {
		hi--
	}
	r.Weights = r.Weights[lo : hi+1]
	r.Left += lo
	r.Right = r.Left + len(r.Weights) - 1
	return r, nil
}

func normalize(w []float64) {
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum <= 0 {
		return
	}
	inv := 1 / sum
	for i := range w {
		w[i] *= inv
	}
}
