package linalg

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestRobustSolveEscalationOrder pins the chain: gauss-seidel first, then
// jacobi with a relaxed budget, then dense direct. A one-sweep iteration
// budget at an unreachable tolerance forces both iterative steps to fail.
func TestRobustSolveEscalationOrder(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(3)), 8)
	b := NewVector(8)
	for i := range b {
		b[i] = float64(i + 1)
	}
	var stats RobustStats
	x, err := RobustSolve(context.Background(), splitCSR(a), b, RobustOpts{
		Opts:  IterOpts{Tol: 1e-15, MaxIter: 1},
		Stats: &stats,
	})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	want := []string{MethodGaussSeidel, MethodJacobi, MethodDense}
	if len(stats.Attempts) != len(want) {
		t.Fatalf("got %d attempts, want %d: %+v", len(stats.Attempts), len(want), stats.Attempts)
	}
	for i, at := range stats.Attempts {
		if at.Method != want[i] {
			t.Errorf("attempt %d method = %s, want %s", i, at.Method, want[i])
		}
	}
	for _, at := range stats.Attempts[:2] {
		var ce *ConvergenceError
		if !errors.As(at.Err, &ce) {
			t.Errorf("%s attempt error = %v, want *ConvergenceError", at.Method, at.Err)
		}
	}
	if stats.Attempts[1].Iterations != 2 {
		t.Errorf("jacobi ran %d sweeps, want 2 (doubled budget)", stats.Attempts[1].Iterations)
	}
	if stats.Method != MethodDense || stats.Attempts[2].Err != nil {
		t.Fatalf("final method = %q (err %v), want dense success", stats.Method, stats.Attempts[2].Err)
	}
	// The dense result must actually solve the system.
	direct, err := SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := x[i] - direct[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], direct[i])
		}
	}
}

// TestRobustSolveFirstMethodWins: on a well-behaved system the chain stops
// after the first step.
func TestRobustSolveFirstMethodWins(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(5)), 12)
	b := NewVector(12)
	b[0] = 1
	var stats RobustStats
	if _, err := RobustSolve(context.Background(), splitCSR(a), b, RobustOpts{Stats: &stats}); err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	if len(stats.Attempts) != 1 || stats.Method != MethodGaussSeidel {
		t.Fatalf("attempts = %+v method = %q, want single gauss-seidel", stats.Attempts, stats.Method)
	}
}

// TestRobustSolveInjectedDivergence: an armed solver.diverge point fails
// the first attempt synthetically; the fallback still solves the system and
// the attempt history marks the injection.
func TestRobustSolveInjectedDivergence(t *testing.T) {
	in, err := fault.Parse("solver.diverge:n=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
	defer fault.Disable()
	a := diagonallyDominantCSR(rand.New(rand.NewSource(7)), 6)
	b := NewVector(6)
	b[2] = 1
	var stats RobustStats
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	x, err := RobustSolve(ctx, splitCSR(a), b, RobustOpts{Stats: &stats})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	if len(stats.Attempts) != 2 || !stats.Attempts[0].Injected || stats.Attempts[1].Err != nil {
		t.Fatalf("attempts = %+v, want injected failure then success", stats.Attempts)
	}
	if stats.Method != MethodJacobi {
		t.Fatalf("method = %q, want jacobi fallback", stats.Method)
	}
	direct, err := SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := x[i] - direct[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], direct[i])
		}
	}
	attempts := rec.Attempts()
	if len(attempts) != 2 || attempts[0].Outcome != obs.AttemptInjected || attempts[1].Outcome != obs.AttemptOK {
		t.Fatalf("recorded attempts = %+v, want injected then ok", attempts)
	}
}

// TestRobustSolveFatalErrorsDoNotEscalate: a singular system is not a
// convergence problem; the chain must abort on the first step.
func TestRobustSolveFatalErrorsDoNotEscalate(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1) // zero diagonal at row 0
	coo.Add(1, 1, 1)
	var stats RobustStats
	_, err := RobustSolve(context.Background(), splitCSR(coo.ToCSR()), Vector{1, 1}, RobustOpts{Stats: &stats})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if len(stats.Attempts) != 1 {
		t.Fatalf("attempts = %+v, want exactly one", stats.Attempts)
	}
}

// TestRobustSolveDenseSkippedAboveLimit: systems beyond DefaultDenseLimit
// exhaust the chain without attempting the dense expansion, and the error
// still unwraps to ErrNoConvergence.
func TestRobustSolveDenseSkippedAboveLimit(t *testing.T) {
	n := DefaultDenseLimit + 1
	a := diagonallyDominantCSR(rand.New(rand.NewSource(9)), n)
	b := NewVector(n)
	b[0] = 1
	var stats RobustStats
	_, err := RobustSolve(context.Background(), splitCSR(a), b, RobustOpts{
		Opts:  IterOpts{Tol: 1e-15, MaxIter: 1},
		Stats: &stats,
	})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if len(stats.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want iterative steps only", stats.Attempts)
	}
	for _, at := range stats.Attempts {
		if at.Method == MethodDense {
			t.Fatal("dense attempted above its size limit")
		}
	}
}

// TestRobustSolveHonorsContext: a canceled context aborts before any step.
func TestRobustSolveHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := diagonallyDominantCSR(rand.New(rand.NewSource(13)), 4)
	var stats RobustStats
	_, err := RobustSolve(ctx, splitCSR(a), NewVector(4), RobustOpts{Stats: &stats})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(stats.Attempts) != 0 {
		t.Fatalf("attempts = %+v, want none", stats.Attempts)
	}
}
