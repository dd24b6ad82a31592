package fault

import (
	"context"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	in, err := Parse("worker.panic:n=2, solver.diverge:p=0.5:skip=1 solve.slow:d=5ms", 1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.points) != 3 {
		t.Fatalf("got %d points, want 3", len(in.points))
	}
	wp := in.points["worker.panic"]
	if wp.limit != 2 || wp.prob != 1 {
		t.Errorf("worker.panic = %+v, want limit 2 prob 1", wp)
	}
	sd := in.points["solver.diverge"]
	if sd.prob != 0.5 || sd.skip != 1 || sd.limit != -1 {
		t.Errorf("solver.diverge = %+v, want prob 0.5 skip 1 unlimited", sd)
	}
	if d := in.points["solve.slow"].delay; d != 5*time.Millisecond {
		t.Errorf("solve.slow delay = %v, want 5ms", d)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                // no points
		"   ,  ",          // no points
		"x:p=2",           // probability out of range
		"x:n=-1",          // negative budget
		"x:d=bogus",       // bad duration
		"x:wat=1",         // unknown parameter
		"x:noequals",      // malformed parameter
		"x:p=0.5 x:p=0.7", // duplicate point
		":p=1",            // empty name
	} {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestFiringBudgetAndSkip(t *testing.T) {
	in, err := Parse("p:n=2:skip=3", 7)
	if err != nil {
		t.Fatal(err)
	}
	Enable(in)
	defer Disable()
	var fired []int
	for i := 0; i < 10; i++ {
		if Should("p") {
			fired = append(fired, i)
		}
	}
	// Calls 0..2 are skipped, then the budget of 2 fires on calls 3 and 4.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on calls %v, want [3 4]", fired)
	}
	st := in.Stats()["p"]
	if st.Calls != 10 || st.Fired != 2 {
		t.Fatalf("stats = %+v, want 10 calls, 2 fired", st)
	}
	if Should("unknown.point") {
		t.Fatal("unnamed point fired")
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		in, err := Parse("p:p=0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			_, out[i] = in.fire("p")
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing patterns")
	}
}

func TestCrashPanics(t *testing.T) {
	in, _ := Parse("boom:n=1", 0)
	Enable(in)
	defer Disable()
	defer func() {
		if recover() == nil {
			t.Fatal("Crash did not panic")
		}
	}()
	Crash("boom")
}

func TestSleepHonorsContext(t *testing.T) {
	in, _ := Parse("zz:d=10s", 0)
	Enable(in)
	defer Disable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if !Sleep(ctx, "zz") {
		t.Fatal("Sleep did not fire")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep ignored canceled context, blocked %v", elapsed)
	}
}

// TestDisabledPathAllocates pins the zero-cost contract: with no injector
// enabled, a production-path check performs no allocation (mirroring the
// internal/obs no-op discipline).
func TestDisabledPathAllocates(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		if Should(PointWorkerPanic) {
			t.Fatal("disabled injector fired")
		}
		Crash(PointWorkerPanic)
		if Sleep(context.Background(), PointSolveSlow) {
			t.Fatal("disabled injector slept")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled fault checks allocate %v per run, want 0", allocs)
	}
}

// BenchmarkDisabledShould measures the production-path cost of a fault
// check with injection disabled — a single atomic load.
func BenchmarkDisabledShould(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Should(PointWorkerPanic) {
			b.Fatal("fired")
		}
	}
}
