package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/transform"
)

// settleGoroutines waits until the goroutine count is back to start: a
// joined goroutine may still be returning after its WaitGroup.Done, and
// under -race with more Ps than CPUs that can take many scheduler rounds.
// The deadline only bounds a real leak, a worker that never exits.
func settleGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the join, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// recovered runs f and returns the value it panicked with.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// Under several workers forEach returns the lowest failing index's error,
// as the sequential order does, even when a higher index fails first. With
// two workers, one waits in index 2 while the other fails at 5, so no index
// above 5 is started.
func TestForEachReturnsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var (
			mu   sync.Mutex
			ran  = make(map[int]bool)
			five = make(chan struct{})
		)
		run := func(_ context.Context, i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			switch i {
			case 2:
				if workers > 1 {
					<-five // finish 5 first
				}
				return fmt.Errorf("index %d", i)
			case 5:
				close(five)
				return fmt.Errorf("index %d", i)
			}
			return nil
		}
		err := forEach(t.Context(), 8, workers, run)
		if err == nil || err.Error() != "index 2" {
			t.Fatalf("workers=%d: error %v, want index 2", workers, err)
		}
		if workers <= 2 && (ran[6] || ran[7]) {
			t.Fatalf("workers=%d: indices above the failure ran: %v", workers, ran)
		}
	}
}

func TestForEachRepanicsOnCaller(t *testing.T) {
	start := runtime.NumGoroutine()
	v := recovered(func() {
		forEach(t.Context(), 4, 4, func(_ context.Context, i int) error {
			if i == 3 {
				panic("worker 3")
			}
			return nil
		})
	})
	if v != "worker 3" {
		t.Fatalf("recovered %v, want the worker's panic", v)
	}
	settleGoroutines(t, start)
}

// A failing index cancels the indices above it, whether it returns an
// error or panics: index 0 fails once index 1 has started, and index 1
// (with 2 and 3 under four workers) waits on its context, so forEach
// returns only if the failure cancelled them.
func TestForEachCancelsLaterIndices(t *testing.T) {
	start := runtime.NumGoroutine()
	errFirst := errors.New("index 0")
	for _, first := range []struct {
		name      string
		fail      func() error
		wantPanic any
	}{
		{"error", func() error { return errFirst }, nil},
		{"panic", func() error { panic("index 0") }, "index 0"},
	} {
		for _, workers := range []int{2, 4} {
			started := make(chan struct{})
			var err error
			v := recovered(func() {
				err = forEach(t.Context(), 4, workers, func(ctx context.Context, i int) error {
					switch i {
					case 0:
						<-started
						return first.fail()
					case 1:
						close(started)
					}
					<-ctx.Done()
					return ctx.Err()
				})
			})
			if v != first.wantPanic {
				t.Fatalf("%s, workers=%d: recovered %v, want %v", first.name, workers, v, first.wantPanic)
			}
			if first.wantPanic == nil && !errors.Is(err, errFirst) {
				t.Fatalf("%s, workers=%d: error %v, want index 0's", first.name, workers, err)
			}
		}
	}
	settleGoroutines(t, start)
}

// progressSink records the Done count of the grid's progress events. When
// both chains have been built by the time the first event arrives, that
// event waits until the other chain's core.analyze span has ended, so the
// other chain's event follows it as closely as it can.
type progressSink struct {
	mu       sync.Mutex
	builds   int
	analyzed int
	bothDone chan struct{}
	done     []int64
}

func (s *progressSink) Emit(e *obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.Kind == obs.EventSpan && e.Name == "transform.build":
		s.builds++
	case e.Kind == obs.EventSpan && e.Name == "core.analyze":
		if s.analyzed++; s.analyzed == 2 {
			close(s.bothDone)
		}
	case e.Kind == obs.EventProgress && e.Name == "core.analyze_all":
		if len(s.done) == 0 && s.builds == 2 {
			s.mu.Unlock()
			<-s.bothDone
			s.mu.Lock()
		}
		s.done = append(s.done, e.Done)
	}
}

// Progress of a grid rises strictly and ends at its nine cells, whichever
// chain finishes first.
func TestAnalyzeAllProgressRises(t *testing.T) {
	sink := &progressSink{bothDone: make(chan struct{})}
	ctx, root := obs.NewTracer(sink, false).StartSpan(t.Context(), "test")
	_, err := Analyzer{}.AnalyzeAllContext(ctx, arch.Architecture1(), arch.MessageM)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	done := sink.done
	if len(done) == 0 || done[len(done)-1] != 9 {
		t.Fatalf("progress %v, want it to end at 9", done)
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("progress %v does not rise", done)
		}
	}
}

// The reward stage's error wins whichever stage fails first.
func TestOverlapPrefersRewardError(t *testing.T) {
	errReward, errSteady := errors.New("reward"), errors.New("steady")
	for _, rewardFirst := range []bool{true, false} {
		first := make(chan struct{})
		reward := func() error {
			if !rewardFirst {
				<-first
			} else {
				defer close(first)
			}
			return errReward
		}
		steady := func() error {
			if rewardFirst {
				<-first
			} else {
				defer close(first)
			}
			return errSteady
		}
		if err := overlap(reward, steady); err != errReward {
			t.Fatalf("reward first %v: error %v, want the reward error", rewardFirst, err)
		}
	}
	if err := overlap(func() error { return nil }, func() error { return errSteady }); err != errSteady {
		t.Fatalf("error %v, want the steady-state error", err)
	}
}

// A panic in either stage is re-raised on the caller once both stages have
// finished.
func TestOverlapRepanicsOnCaller(t *testing.T) {
	start := runtime.NumGoroutine()
	var steadyDone bool
	v := recovered(func() {
		overlap(func() error { panic("reward") }, func() error { steadyDone = true; return nil })
	})
	if v != "reward" || !steadyDone {
		t.Fatalf("recovered %v (steady done %v), want the reward stage's panic after the join", v, steadyDone)
	}
	release := make(chan struct{})
	var rewardDone bool
	v = recovered(func() {
		overlap(func() error { <-release; rewardDone = true; return nil }, func() error {
			close(release)
			panic("steady")
		})
	})
	if v != "steady" || !rewardDone {
		t.Fatalf("recovered %v (reward done %v), want the steady stage's panic after the join", v, rewardDone)
	}
	settleGoroutines(t, start)
}

// With solver divergence injected the steady state fails; when the reward
// stage fails too (an infinite horizon), its error is the one returned.
func TestSolveBothStagesFailReturnsRewardError(t *testing.T) {
	p, err := Analyzer{}.PrepareContext(context.Background(), arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse(fault.PointSolverDiverge, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
	t.Cleanup(fault.Disable)
	var ce *linalg.ConvergenceError
	if _, err := (Analyzer{}).AnalyzePreparedContext(context.Background(), p); !errors.As(err, &ce) {
		t.Fatalf("steady state alone: error %v, want a convergence error", err)
	}
	_, err = Analyzer{Horizon: math.Inf(1)}.AnalyzePreparedContext(context.Background(), p)
	if !errors.Is(err, ctmc.ErrBadTime) || errors.As(err, &ce) {
		t.Fatalf("both stages failing: error %v, want the reward stage's ErrBadTime", err)
	}
}

// A cancelled context stops both stages: the call returns ctx.Err() and
// leaves no goroutine behind.
func TestSolveCancelledContext(t *testing.T) {
	p, err := Analyzer{}.PrepareContext(context.Background(), arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := runtime.NumGoroutine()
	for _, lumping := range []bool{false, true} {
		if _, err := (Analyzer{UseLumping: lumping}).AnalyzePreparedContext(ctx, p); !errors.Is(err, ctx.Err()) {
			t.Fatalf("lumping %v: error %v, want %v", lumping, err, ctx.Err())
		}
	}
	settleGoroutines(t, start)
}

// spanParents records the parent of each span name it sees.
type spanParents struct {
	mu     sync.Mutex
	ids    map[string]uint64
	parent map[string]uint64
}

func (s *spanParents) Emit(e *obs.Event) {
	if e.Kind != obs.EventSpan {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids[e.Name], s.parent[e.Name] = e.ID, e.Parent
}

// The overlapped stages run under the caller's context, so both spans are
// children of core.analyze.
func TestOverlappedSpansShareParent(t *testing.T) {
	sink := &spanParents{ids: map[string]uint64{}, parent: map[string]uint64{}}
	ctx, root := obs.NewTracer(sink, false).StartSpan(context.Background(), "test")
	_, err := Analyzer{}.AnalyzeContext(ctx, arch.Architecture1(), arch.MessageM, transform.Availability, transform.Unencrypted)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	analyze := sink.ids["core.analyze"]
	for _, name := range []string{"ctmc.cumulative_reward", "ctmc.steadystate"} {
		if p, ok := sink.parent[name]; !ok || p != analyze || analyze == 0 {
			t.Errorf("%s: parent %d (seen %v), want core.analyze %d", name, p, ok, analyze)
		}
	}
}
