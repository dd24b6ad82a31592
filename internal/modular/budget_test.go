package modular

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestExploreStateBudgetTyped(t *testing.T) {
	m, _ := buildBirthDeath(t, 100, 1, 1)
	_, err := m.ExploreContext(t.Context(), ExploreOpts{MaxStates: 10})
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

// pollCtx is a context whose Err turns to context.Canceled after live
// nil-returning polls, counting every poll: it stands in for a deadline or
// a Ctrl-C without a wall clock.
type pollCtx struct {
	context.Context
	live, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// Exploration polls its context once per 1024 expanded states (heads 0,
// 1024, 2048, …) and stops at the first poll that reports the context
// done, returning its error wrapped and no Explored.
func TestExploreHonoursCancellation(t *testing.T) {
	m, _ := buildBirthDeath(t, 5000, 1, 1) // 5001 states

	full := &pollCtx{Context: t.Context(), live: math.MaxInt}
	ex, err := m.ExploreContext(full, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 5001 || full.polls != 5 {
		t.Fatalf("states = %d, polls = %d; want 5001 states in 5 polls", ex.N(), full.polls)
	}

	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	ex, err = m.ExploreContext(cancelled, ExploreOpts{})
	if !errors.Is(err, context.Canceled) || ex != nil {
		t.Fatalf("already cancelled: ex = %v, err = %v; want nil, context.Canceled", ex, err)
	}

	for k := 0; k <= 3; k++ {
		ctx := &pollCtx{Context: t.Context(), live: k}
		ex, err := m.ExploreContext(ctx, ExploreOpts{})
		if !errors.Is(err, context.Canceled) || ex != nil {
			t.Fatalf("k=%d: ex = %v, err = %v; want nil, context.Canceled", k, ex, err)
		}
		// Poll k+1 follows state 1024·k, so at most 1024·(k+1) states
		// were expanded.
		if ctx.polls != k+1 {
			t.Fatalf("k=%d: %d polls, want %d", k, ctx.polls, k+1)
		}
	}
}

func TestExploreTransitionBudget(t *testing.T) {
	m, _ := buildBirthDeath(t, 100, 1, 1)
	_, err := m.ExploreContext(t.Context(), ExploreOpts{MaxTransitions: 5})
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
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
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
