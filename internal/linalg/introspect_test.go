package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestTraceSamplingConverged: a converging solve yields a
// monotone-iteration trace whose final point is the reported result.
func TestTraceSamplingConverged(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(21)), 24)
	b := NewVector(24)
	b[0] = 1
	_, stats, err := GaussSeidel(splitCSR(a), b, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Trace) == 0 {
		t.Fatal("no trace collected")
	}
	for i := 1; i < len(stats.Trace); i++ {
		if stats.Trace[i].Iteration <= stats.Trace[i-1].Iteration {
			t.Fatalf("trace iterations not increasing at %d: %+v", i, stats.Trace)
		}
	}
	last := stats.Trace[len(stats.Trace)-1]
	if last.Iteration != stats.Iterations || last.Residual != stats.Residual {
		t.Fatalf("trace tail %+v != reported stats %+v", last, stats)
	}
}

// TestTraceSamplingIsLogSpaced: 10000 iterations must produce tens of
// points, not thousands — the property that makes always-on collection in
// RobustSolve affordable.
func TestTraceSamplingIsLogSpaced(t *testing.T) {
	// A barely-contractive system (Gauss–Seidel iteration-matrix spectral
	// radius 0.9999² ≈ 0.9998): converging to 1e-12 would need ~138k
	// sweeps, so a 10000-sweep budget always runs out — without overflow.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, -0.9999)
	coo.Add(1, 0, -0.9999)
	coo.Add(1, 1, 1)
	_, stats, err := GaussSeidel(splitCSR(coo.ToCSR()), Vector{1, 0}, IterOpts{MaxIter: 10000})
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want ConvergenceError", err)
	}
	if n := len(stats.Trace); n < 10 || n > 64 {
		t.Fatalf("trace has %d points for 10000 iterations, want log-spaced 10..64", n)
	}
	if last := stats.Trace[len(stats.Trace)-1]; last.Iteration != 10000 {
		t.Fatalf("trace tail iteration = %d, want 10000", last.Iteration)
	}
}

// TestDetectStagnation covers the detector's verdicts on synthetic curves.
func TestDetectStagnation(t *testing.T) {
	mk := func(residuals ...float64) []obs.ResidualPoint {
		pts := make([]obs.ResidualPoint, len(residuals))
		for i, r := range residuals {
			pts[i] = obs.ResidualPoint{Iteration: i + 1, Residual: r}
		}
		return pts
	}
	cases := []struct {
		name  string
		trace []obs.ResidualPoint
		want  bool
	}{
		{"healthy", mk(1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12), false},
		{"plateau", mk(1, 1e-2, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9), true},
		{"diverging", mk(1, 2, 4, 8, 16, 32, 64), true},
		{"overflowed", mk(1, 1e100, 1e200, math.Inf(1), math.Inf(1), math.NaN(), math.NaN()), true},
		{"too-short", mk(1, 1, 1), false},
	}
	for _, tc := range cases {
		sg, got := detectStagnation(tc.trace)
		if got != tc.want {
			t.Errorf("%s: detected = %v, want %v (%+v)", tc.name, got, tc.want, sg)
		}
		if got && sg.toIteration != tc.trace[len(tc.trace)-1].Iteration {
			t.Errorf("%s: window end %d, want trace tail", tc.name, sg.toIteration)
		}
	}
}

// TestRobustSolveAttemptTraces is the forced-divergence acceptance test
// at the linalg layer: a genuinely diverging system (not fault injection,
// which never runs a solver) fails the iterative step, its failed attempt
// carries its sampled convergence curve, the detected stagnation lands in
// the black box *before* the fallback attempt fires, and the dense
// fallback's attempt carries the residual of its answer.
func TestRobustSolveAttemptTraces(t *testing.T) {
	// A 2x2 system that is far from diagonally dominant: Gauss–Seidel
	// diverges geometrically, while dense elimination solves it exactly
	// (det = -5).
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 3)
	coo.Add(1, 1, 1)
	a := coo.ToCSR()
	b := Vector{1, 1}

	flight := obs.NewFlight(64)
	rec := &obs.AttemptRecorder{}
	tracer := obs.NewTracer(obs.MultiSink{flight, rec}, false)
	ctx, root := tracer.StartSpan(context.Background(), "test")
	defer root.End()

	// 100 sweeps diverge to ~6^100 without overflowing to Inf.
	x, method, st, err := RobustSolve(ctx, splitCSR(a), b, IterOpts{MaxIter: 100})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	attempts := rec.Attempts()
	if method != MethodDense || len(attempts) != 2 {
		t.Fatalf("method %q with %d attempts, want dense after 2", method, len(attempts))
	}
	// x = A⁻¹·(1,1): exact solution (0.2, 0.4).
	if math.Abs(x[0]-0.2) > 1e-9 || math.Abs(x[1]-0.4) > 1e-9 {
		t.Fatalf("x = %v, want (0.2, 0.4)", x)
	}
	// The recorded attempts carry the curves and residuals, so they reach
	// job manifests: the failed sweep its trace, the dense step the
	// residual of its answer.
	if gs := attempts[0]; len(gs.Trace) < StagnationWindow || gs.Residual == 0 {
		t.Fatalf("gauss-seidel attempt trace has %d points (want >= %d), residual %v: %+v", len(gs.Trace), StagnationWindow, gs.Residual, gs)
	}
	if sg, ok := detectStagnation(attempts[0].Trace); !ok || sg.improvement >= 1 {
		t.Errorf("gauss-seidel stagnation = %+v, %v; want diverging (improvement < 1)", sg, ok)
	}
	if dense := attempts[1]; dense.Residual != st.Residual || len(dense.Trace) != 0 {
		t.Errorf("dense attempt %+v, want residual %v and no trace", dense, st.Residual)
	}

	// Black-box ordering: the stagnation event precedes the attempt record
	// of the fallback solver.
	events := flight.Snapshot()
	seqOfAttempt := map[float64]uint64{} // try number -> seq
	var stagnationSeqs []uint64
	for _, ev := range events {
		switch {
		case ev.Kind == "attempt" && ev.Name == "solver":
			seqOfAttempt[ev.Value] = ev.Seq
		case ev.Kind == "log" && ev.Name == "solver.stagnation":
			stagnationSeqs = append(stagnationSeqs, ev.Seq)
		}
	}
	if len(stagnationSeqs) != 1 {
		t.Fatalf("flight has %d stagnation events, want 1: %+v", len(stagnationSeqs), events)
	}
	if stagnationSeqs[0] >= seqOfAttempt[2] {
		t.Errorf("stagnation (seq %d) not before fallback attempt 2 (seq %d)", stagnationSeqs[0], seqOfAttempt[2])
	}
}

// TestRobustSolveAttemptReachesRunFlight: with no span in the context, a
// fallback attempt travels through the default tracer a StartRun session
// installs, into the session's flight ring.
func TestRobustSolveAttemptReachesRunFlight(t *testing.T) {
	r, err := obs.StartRun(obs.RunOptions{FlightSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Far from diagonally dominant: Gauss–Seidel diverges, so the chain
	// falls back.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 3)
	coo.Add(1, 1, 1)
	if _, _, _, err := RobustSolve(context.Background(), splitCSR(coo.ToCSR()), Vector{1, 1}, IterOpts{MaxIter: 100}); err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	var tries []float64
	for _, ev := range r.Flight.Snapshot() {
		if ev.Kind == "attempt" && ev.Name == "solver" {
			tries = append(tries, ev.Value)
		}
	}
	if len(tries) < 2 || tries[0] != 1 || tries[1] != 2 {
		t.Fatalf("ring solver attempts = %v, want the failed first try and its fallback", tries)
	}
}
