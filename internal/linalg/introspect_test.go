package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestTraceSamplingConverged: a converging solve with CollectTrace yields a
// monotone-iteration trace whose final point is the reported result.
func TestTraceSamplingConverged(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(21)), 24)
	b := NewVector(24)
	b[0] = 1
	var stats IterStats
	if _, err := Jacobi(splitCSR(a), b, IterOpts{Stats: &stats, CollectTrace: true}); err != nil {
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
	// A barely-contractive system (Jacobi iteration-matrix spectral radius
	// 0.9999): converging to 1e-12 would need ~276k sweeps, so a 10000-sweep
	// budget always runs out — without overflow.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, -0.9999)
	coo.Add(1, 0, -0.9999)
	coo.Add(1, 1, 1)
	var stats IterStats
	_, err := Jacobi(splitCSR(coo.ToCSR()), Vector{1, 0}, IterOpts{MaxIter: 10000, Stats: &stats, CollectTrace: true})
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

// TestTraceDisabledByDefault: without CollectTrace the stats carry no trace
// (and the loops pay no sampling cost).
func TestTraceDisabledByDefault(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(25)), 8)
	var stats IterStats
	if _, err := GaussSeidel(splitCSR(a), NewVector(8), IterOpts{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Fatalf("trace collected without CollectTrace: %+v", stats.Trace)
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
		sg, got := DetectStagnation(tc.trace, 0, 0)
		if got != tc.want {
			t.Errorf("%s: detected = %v, want %v (%+v)", tc.name, got, tc.want, sg)
		}
		if got && sg.ToIteration != tc.trace[len(tc.trace)-1].Iteration {
			t.Errorf("%s: window end %d, want trace tail", tc.name, sg.ToIteration)
		}
	}
}

// TestRobustSolveAttemptTraces is the tentpole's forced-divergence
// acceptance test at the linalg layer: a genuinely diverging system (not
// fault injection, which never runs a solver) fails both iterative steps,
// each failed attempt carries its sampled convergence curve plus a detected
// stagnation, and the stagnation events land in the black box *before* the
// fallback attempt fires.
func TestRobustSolveAttemptTraces(t *testing.T) {
	// A 2x2 system that is far from diagonally dominant: both Jacobi and
	// Gauss–Seidel diverge geometrically, while dense elimination solves it
	// exactly (det = -5).
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

	var stats RobustStats
	x, err := RobustSolve(ctx, splitCSR(a), b, RobustOpts{
		// 100 sweeps diverge to ~6^100 without overflowing to Inf.
		Opts:  IterOpts{MaxIter: 100},
		Stats: &stats,
	})
	if err != nil {
		t.Fatalf("RobustSolve: %v", err)
	}
	if stats.Method != MethodDense || len(stats.Attempts) != 3 {
		t.Fatalf("method %q with %d attempts, want dense after 3", stats.Method, len(stats.Attempts))
	}
	// x = A⁻¹·(1,1): exact solution (0.2, 0.4).
	if math.Abs(x[0]-0.2) > 1e-9 || math.Abs(x[1]-0.4) > 1e-9 {
		t.Fatalf("x = %v, want (0.2, 0.4)", x)
	}
	for _, at := range stats.Attempts[:2] {
		if len(at.Trace) < StagnationWindow {
			t.Fatalf("%s attempt trace has %d points, want >= %d", at.Method, len(at.Trace), StagnationWindow)
		}
		if at.Stagnation == nil {
			t.Fatalf("%s attempt has no detected stagnation: %+v", at.Method, at)
		}
		if at.Stagnation.Improvement >= 1 {
			t.Errorf("%s improvement = %v, want < 1 (diverging)", at.Method, at.Stagnation.Improvement)
		}
	}

	// The recorded obs attempts must carry the same curves and residuals, so
	// they reach job manifests unchanged.
	attempts := rec.Attempts()
	if len(attempts) != 3 {
		t.Fatalf("recorded %d attempts, want 3", len(attempts))
	}
	for _, at := range attempts[:2] {
		if len(at.Trace) == 0 || at.Residual == 0 {
			t.Fatalf("recorded attempt missing trace/residual: %+v", at)
		}
	}

	// Black-box ordering: each stagnation event precedes the attempt record
	// of the *next* (fallback) solver.
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
	if len(stagnationSeqs) != 2 {
		t.Fatalf("flight has %d stagnation events, want 2: %+v", len(stagnationSeqs), events)
	}
	if stagnationSeqs[0] >= seqOfAttempt[2] {
		t.Errorf("first stagnation (seq %d) not before fallback attempt 2 (seq %d)", stagnationSeqs[0], seqOfAttempt[2])
	}
	if stagnationSeqs[1] >= seqOfAttempt[3] {
		t.Errorf("second stagnation (seq %d) not before fallback attempt 3 (seq %d)", stagnationSeqs[1], seqOfAttempt[3])
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
	if _, err := RobustSolve(context.Background(), splitCSR(coo.ToCSR()), Vector{1, 1}, RobustOpts{Opts: IterOpts{MaxIter: 100}}); err != nil {
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
