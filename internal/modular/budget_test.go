package modular

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestExploreStateBudgetTyped(t *testing.T) {
	m, _ := buildBirthDeath(t, 100, 1, 1)
	_, err := m.Explore(ExploreOpts{MaxStates: 10})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "states" || be.Limit != 10 {
		t.Fatalf("err = %v, want *BudgetError{states, 10}", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err %v does not match ErrBudgetExceeded", err)
	}
	// Backward compatibility: the state budget still matches the original
	// sentinel.
	if !errors.Is(err, ErrStateSpaceLimit) {
		t.Fatalf("err %v does not match ErrStateSpaceLimit", err)
	}
}

func TestExploreTransitionBudget(t *testing.T) {
	m, _ := buildBirthDeath(t, 100, 1, 1)
	_, err := m.Explore(ExploreOpts{MaxTransitions: 5})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "transitions" || be.Limit != 5 {
		t.Fatalf("err = %v, want *BudgetError{transitions, 5}", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err %v does not match ErrBudgetExceeded", err)
	}
	// The transition budget must not alias the state sentinel.
	if errors.Is(err, ErrStateSpaceLimit) {
		t.Fatalf("transition budget error %v unexpectedly matches ErrStateSpaceLimit", err)
	}
	// A budget that accommodates the model leaves exploration untouched.
	ex, err := m.Explore(ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 101 {
		t.Fatalf("states = %d, want 101", ex.N())
	}
}

// The transition budget is clamped to the most entries the rate CSR's
// int32 offsets hold, as the state budget is to what the state index can
// number; unset budgets take their defaults. Nothing large is allocated.
func TestExploreBudgetsClampToIndexWidth(t *testing.T) {
	for _, tc := range []struct {
		opts                ExploreOpts
		states, transitions int
	}{
		{ExploreOpts{}, 5_000_000, 20_000_000},
		{ExploreOpts{MaxStates: 7, MaxTransitions: 9}, 7, 9},
		{ExploreOpts{MaxStates: math.MaxInt, MaxTransitions: math.MaxInt}, maxIndexedStates, linalg.MaxNNZ},
		{ExploreOpts{MaxTransitions: linalg.MaxNNZ + 1}, 5_000_000, linalg.MaxNNZ},
	} {
		states, transitions := tc.opts.budgets()
		if states != tc.states || transitions != tc.transitions {
			t.Errorf("%+v: budgets %d states, %d transitions; want %d, %d", tc.opts, states, transitions, tc.states, tc.transitions)
		}
	}
	if linalg.MaxNNZ != math.MaxInt32 {
		t.Fatalf("MaxNNZ = %d, want the largest int32", linalg.MaxNNZ)
	}
}
