package main

import (
	"fmt"
	"math"
)

// reference is a recorded analysis result. refs_data.go holds the values
// recorded for every Figure 5 cell and every synthetic-20k grid point;
// regenerate it with `go test -run TestRecordReferences -update` from this
// directory.
type reference struct {
	frac, steady        float64
	states, transitions int
}

// relTol bounds the relative difference accepted between a result and its
// reference: far above the solvers' round-off and truncation error
// (uniformisation accuracy 1e-10, Gauss–Seidel tolerance 1e-11), far below
// any change a modelling bug makes.
const relTol = 1e-7

func (r reference) check(frac, steady float64, states, transitions int) error {
	if states != r.states || transitions != r.transitions {
		return fmt.Errorf("model has %d states/%d transitions, want %d/%d", states, transitions, r.states, r.transitions)
	}
	if !within(frac, r.frac) {
		return fmt.Errorf("exploitable-time fraction %.17g, want %.17g", frac, r.frac)
	}
	if !within(steady, r.steady) {
		return fmt.Errorf("steady-state probability %.17g, want %.17g", steady, r.steady)
	}
	return nil
}

func within(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-9)
}
