package linalg

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestRobustSolveEscalationOrder pins the chain: gauss-seidel first, then
// dense direct. A one-sweep iteration budget at an unreachable tolerance
// forces the iterative step to fail.
func TestRobustSolveEscalationOrder(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(3)), 8)
	b := NewVector(8)
	for i := range b {
		b[i] = float64(i + 1)
	}
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	x, method, st, err := RobustSolve(ctx, splitCSR(a), b, IterOpts{Tol: 1e-15, MaxIter: 1})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	attempts := rec.Attempts()
	want := []string{MethodGaussSeidel, MethodDense}
	if len(attempts) != len(want) {
		t.Fatalf("got %d attempts, want %d: %+v", len(attempts), len(want), attempts)
	}
	for i, at := range attempts {
		if at.Method != want[i] {
			t.Errorf("attempt %d method = %s, want %s", i, at.Method, want[i])
		}
	}
	if at := attempts[0]; at.Outcome != obs.AttemptError || !strings.Contains(at.Error, "did not converge") {
		t.Errorf("gauss-seidel attempt = %+v, want a convergence failure", at)
	}
	if method != MethodDense || attempts[1].Outcome != obs.AttemptOK {
		t.Fatalf("final method = %q (attempt %+v), want dense success", method, attempts[1])
	}
	// The dense step reports the max-norm residual of its answer, on its
	// attempt and in the returned stats.
	res := splitCSR(a).residual(x, b)
	if st.Iterations != 0 || st.Residual != res || attempts[1].Residual != res {
		t.Errorf("dense stats %+v, attempt residual %v; want no iterations and residual %v", st, attempts[1].Residual, res)
	}
	if res > 1e-12 {
		t.Errorf("dense residual %v, want ~machine precision", res)
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
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	_, method, st, err := RobustSolve(ctx, splitCSR(a), b, IterOpts{})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	if attempts := rec.Attempts(); len(attempts) != 1 || method != MethodGaussSeidel {
		t.Fatalf("attempts = %+v method = %q, want single gauss-seidel", attempts, method)
	}
	if !st.Converged || st.Iterations == 0 {
		t.Fatalf("stats = %+v, want the converged gauss-seidel sweep count", st)
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
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	x, method, _, err := RobustSolve(ctx, splitCSR(a), b, IterOpts{})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	if method != MethodDense {
		t.Fatalf("method = %q, want dense fallback", method)
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
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	_, _, _, err := RobustSolve(ctx, splitCSR(coo.ToCSR()), Vector{1, 1}, IterOpts{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if attempts := rec.Attempts(); len(attempts) != 1 {
		t.Fatalf("attempts = %+v, want exactly one", attempts)
	}
}

// TestRobustSolveDenseSkippedAboveLimit: systems beyond DefaultDenseLimit
// exhaust the chain after the one iterative attempt, without the dense
// expansion, and the error still unwraps to ErrNoConvergence.
func TestRobustSolveDenseSkippedAboveLimit(t *testing.T) {
	n := DefaultDenseLimit + 1
	a := diagonallyDominantCSR(rand.New(rand.NewSource(9)), n)
	b := NewVector(n)
	b[0] = 1
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(context.Background(), "test")
	defer root.End()
	_, method, st, err := RobustSolve(ctx, splitCSR(a), b, IterOpts{Tol: 1e-15, MaxIter: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if attempts := rec.Attempts(); len(attempts) != 1 || attempts[0].Method != MethodGaussSeidel {
		t.Fatalf("attempts = %+v, want the gauss-seidel step only", attempts)
	}
	if method != MethodGaussSeidel || st.Iterations != 1 {
		t.Fatalf("method %q with stats %+v, want the failed gauss-seidel step", method, st)
	}
}

// TestRobustSolveHonorsContext: a canceled context aborts before any step.
func TestRobustSolveHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := diagonallyDominantCSR(rand.New(rand.NewSource(13)), 4)
	rec := &obs.AttemptRecorder{}
	ctx, root := obs.NewTracer(rec, false).StartSpan(ctx, "test")
	defer root.End()
	_, method, _, err := RobustSolve(ctx, splitCSR(a), NewVector(4), IterOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts := rec.Attempts(); len(attempts) != 0 || method != "" {
		t.Fatalf("attempts = %+v, method %q, want none", attempts, method)
	}
}
