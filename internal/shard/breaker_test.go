package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testSet(threshold int, base, max time.Duration) (*BreakerSet, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := NewBreakerSet(BreakerOptions{
		FailureThreshold: threshold,
		OpenBase:         base,
		OpenMax:          max,
		Now:              clk.now,
	})
	return s, clk
}

// errPeer is the injected failure of a guarded call.
var errPeer = errors.New("injected peer failure")

// call runs one guarded call to node whose fn returns result, reporting
// whether the breaker admitted it.
func call(s *BreakerSet, node string, result error) (admitted bool) {
	err := s.Do(context.Background(), node, func(context.Context) error { return result })
	return !errors.Is(err, ErrBreakerOpen)
}

// holdCall starts a guarded call to node whose fn blocks until finish is
// called with the error fn should return; finish returns Do's result.
// holdCall returns once fn is running.
func holdCall(t *testing.T, ctx context.Context, s *BreakerSet, node string) (finish func(error) error) {
	t.Helper()
	entered := make(chan struct{})
	verdict := make(chan error)
	done := make(chan error, 1)
	go func() {
		done <- s.Do(ctx, node, func(context.Context) error {
			close(entered)
			return <-verdict
		})
	}()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("held call was refused: %v", err)
	}
	return func(err error) error {
		verdict <- err
		return <-done
	}
}

// TestBreakerLifecycle walks closed → open → half-open → closed: the
// breaker trips on consecutive failures, refuses while open, admits a
// single trial after the backoff, and closes on trial success.
func TestBreakerLifecycle(t *testing.T) {
	s, clk := testSet(3, time.Second, 30*time.Second)
	if !call(s, "n", nil) || s.State("n") != BreakerClosed {
		t.Fatal("new breaker should be closed and admitting")
	}
	call(s, "n", errPeer)
	call(s, "n", errPeer)
	if s.State("n") != BreakerClosed {
		t.Fatalf("tripped below threshold: %v", s.State("n"))
	}
	call(s, "n", errPeer)
	if s.State("n") != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, s.State("n"))
	}
	if call(s, "n", nil) {
		t.Fatal("open breaker inside backoff admitted a call")
	}
	clk.advance(1100 * time.Millisecond)
	finish := holdCall(t, context.Background(), s, "n")
	if s.State("n") != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", s.State("n"))
	}
	if err := finish(nil); err != nil || s.State("n") != BreakerClosed || !call(s, "n", nil) {
		t.Fatalf("successful trial did not close the breaker: err=%v state=%v", err, s.State("n"))
	}
}

// TestBreakerHalfOpenRefusesConcurrentTrial: while the half-open trial is
// inside Do, a concurrent Do is refused with ErrBreakerOpen and its fn
// never runs.
func TestBreakerHalfOpenRefusesConcurrentTrial(t *testing.T) {
	s, clk := testSet(1, time.Second, time.Second)
	call(s, "n", errPeer)
	clk.advance(2 * time.Second)
	finish := holdCall(t, context.Background(), s, "n")
	ran := false
	err := s.Do(context.Background(), "n", func(context.Context) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrBreakerOpen) || ran {
		t.Fatalf("concurrent call during the trial: err=%v ran=%v, want ErrBreakerOpen and fn not run", err, ran)
	}
	if err := finish(errPeer); err != errPeer || s.State("n") != BreakerOpen {
		t.Fatalf("failed trial: err=%v state=%v, want the injected error and open", err, s.State("n"))
	}
}

// TestBreakerBackoffDoubles: each failed half-open trial doubles the open
// period, capped at OpenMax.
func TestBreakerBackoffDoubles(t *testing.T) {
	s, clk := testSet(1, time.Second, 4*time.Second)
	wantOpen := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second}
	call(s, "n", errPeer) // trips immediately (threshold 1)
	for i, d := range wantOpen {
		if s.State("n") != BreakerOpen {
			t.Fatalf("round %d: state %v, want open", i, s.State("n"))
		}
		clk.advance(d - time.Millisecond)
		if call(s, "n", errPeer) {
			t.Fatalf("round %d: admitted before %v backoff elapsed", i, d)
		}
		clk.advance(2 * time.Millisecond)
		// The trial fails: re-open with doubled backoff.
		if !call(s, "n", errPeer) {
			t.Fatalf("round %d: trial refused after %v backoff", i, d)
		}
	}
	// Recovery resets the backoff ladder.
	clk.advance(5 * time.Second)
	if !call(s, "n", nil) {
		t.Fatal("trial refused after cap backoff")
	}
	call(s, "n", errPeer)
	if s.State("n") != BreakerOpen {
		t.Fatal("post-recovery failure did not trip (threshold 1)")
	}
	clk.advance(1100 * time.Millisecond)
	if !call(s, "n", nil) {
		t.Fatal("backoff ladder did not reset after recovery: first open period should be base again")
	}
}

// TestBreakerSetTransitions checks the set-level creation-on-demand,
// snapshot, and transition callback.
func TestBreakerSetTransitions(t *testing.T) {
	s, clk := testSet(2, time.Second, time.Second)
	var transitions atomic.Int64
	var lastFrom, lastTo BreakerState
	s.OnTransition = func(node string, from, to BreakerState) {
		transitions.Add(1)
		lastFrom, lastTo = from, to
	}
	if st := s.State("n2"); st != BreakerClosed {
		t.Fatalf("fresh node state = %v", st)
	}
	call(s, "n2", errPeer)
	call(s, "n2", errPeer)
	if got := s.State("n2"); got != BreakerOpen {
		t.Fatalf("n2 state = %v, want open", got)
	}
	if transitions.Load() != 1 || lastFrom != BreakerClosed || lastTo != BreakerOpen {
		t.Fatalf("transition callback: n=%d %v→%v", transitions.Load(), lastFrom, lastTo)
	}
	clk.advance(2 * time.Second)
	call(s, "n2", nil)
	if transitions.Load() != 3 || lastFrom != BreakerHalfOpen || lastTo != BreakerClosed {
		t.Fatalf("recovery transitions not observed: n=%d %v→%v", transitions.Load(), lastFrom, lastTo)
	}
	states := s.States()
	if len(states) != 1 || states["n2"] != BreakerClosed {
		t.Fatalf("States() = %v", states)
	}
	// A nil set admits everything and passes fn's result through.
	var nilSet *BreakerSet
	if err := nilSet.Do(context.Background(), "x", func(context.Context) error { return errPeer }); err != errPeer {
		t.Fatalf("nil set Do = %v, want the injected error", err)
	}
	if nilSet.State("x") != BreakerClosed || nilSet.States() != nil {
		t.Fatal("nil set reports state")
	}
}

// TestBreakerReleaseReturnsTrialSlot: a half-open trial whose caller's
// context ends mid-call (the forwarding client went away, the prober
// stopped) returns the slot without judging the peer. The breaker stays
// half-open with no trial out instead of re-opening with doubled backoff,
// so the next caller can take the trial at once.
func TestBreakerReleaseReturnsTrialSlot(t *testing.T) {
	s, clk := testSet(1, time.Second, 30*time.Second)
	call(s, "n", errPeer)
	clk.advance(2 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	finish := holdCall(t, ctx, s, "n")
	cancel()
	if err := finish(ctx.Err()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trial returned %v", err)
	}
	if s.State("n") != BreakerHalfOpen {
		t.Fatalf("state after canceled trial = %v, want half-open", s.State("n"))
	}
	// The slot is free without advancing the clock, and a failed retrial
	// re-opens with the second rung of the backoff ladder, not the third.
	if !call(s, "n", errPeer) || s.State("n") != BreakerOpen {
		t.Fatalf("released trial slot was not reusable: state=%v", s.State("n"))
	}
	clk.advance(2*time.Second + time.Millisecond)
	if !call(s, "n", nil) || s.State("n") != BreakerClosed {
		t.Fatalf("retrial after a doubled backoff: state=%v, want closed", s.State("n"))
	}
	// Cancellation on a closed breaker records nothing.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		s.Do(ctx, "n", func(ctx context.Context) error { return ctx.Err() })
	}
	if s.State("n") != BreakerClosed {
		t.Fatalf("canceled calls tripped a closed breaker: %v", s.State("n"))
	}
}

// TestBreakerTransitionsFormChain hammers one breaker from 8 goroutines
// with a mix of successes and failures on a clock that ticks every read, so
// it cycles through every state. The transitions OnTransition observes must
// form one unbroken chain: each starts where the previous one ended, and
// none repeats a state.
func TestBreakerTransitionsFormChain(t *testing.T) {
	var tick atomic.Int64
	s := NewBreakerSet(BreakerOptions{
		FailureThreshold: 2,
		OpenBase:         5 * time.Nanosecond,
		OpenMax:          40 * time.Nanosecond,
		Now:              func() time.Time { return time.Unix(0, tick.Add(1)) },
	})
	type event struct{ from, to BreakerState }
	var mu sync.Mutex
	var events []event
	s.OnTransition = func(node string, from, to BreakerState) {
		mu.Lock()
		events = append(events, event{from, to})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				var result error
				if (g+i)%3 != 0 {
					result = errPeer
				}
				call(s, "n", result)
			}
		}(g)
	}
	wg.Wait()
	prev := BreakerClosed
	seen := map[BreakerState]bool{}
	for i, e := range events {
		if e.from != prev || e.from == e.to {
			t.Fatalf("event %d: %v→%v does not follow %v", i, e.from, e.to, prev)
		}
		prev = e.to
		seen[e.to] = true
	}
	if prev != s.State("n") {
		t.Fatalf("chain ends at %v, breaker is %v", prev, s.State("n"))
	}
	if len(seen) != 3 {
		t.Fatalf("only reached %v in %d transitions; the test did not exercise every state", seen, len(events))
	}
}

// TestRingSuccessors: the successor list starts at the owner, contains
// distinct nodes, and is consistent across the membership.
func TestRingSuccessors(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"}, 0)
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("key %q: %d successors, want 3", key, len(succ))
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("key %q: successors[0] = %s, owner = %s", key, succ[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("key %q: duplicate successor %s in %v", key, n, succ)
			}
			seen[n] = true
		}
		if got := r.Successors(key, 10); len(got) != 3 {
			t.Fatalf("over-asking yielded %v", got)
		}
		if got := r.Successors(key, 1); len(got) != 1 || got[0] != r.Owner(key) {
			t.Fatalf("Successors(key,1) = %v", got)
		}
	}
	var nilRing *Ring
	if nilRing.Successors("x", 2) != nil {
		t.Fatal("nil ring returned successors")
	}
}

// TestHealthyOwnerFailsOver: with the owner's breaker open, HealthyOwner
// deterministically picks the next successor; once the backoff expires it
// offers the owner again without taking the trial, and a successful trial
// keeps ownership there.
func TestHealthyOwnerFailsOver(t *testing.T) {
	peers := map[string]string{
		"n1": "http://127.0.0.1:1", "n2": "http://127.0.0.1:2", "n3": "http://127.0.0.1:3",
	}
	rt, err := NewRouter("n1", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	var clk *fakeClock
	rt.Breakers, clk = testSet(3, time.Second, time.Second)
	// Find a key owned by a remote node.
	var key, owner string
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if o := rt.Ring().Owner(k); o != "n1" {
			key, owner = k, o
			break
		}
	}
	if key == "" {
		t.Fatal("no remote-owned key found")
	}
	if n, _, failover := rt.HealthyOwner(key); n != owner || failover {
		t.Fatalf("healthy ring: owner=%s failover=%v, want %s/false", n, failover, owner)
	}
	// Trip the owner's breaker: ownership moves to the next successor.
	for i := 0; i < 3; i++ {
		call(rt.Breakers, owner, errPeer)
	}
	wantNext := rt.Ring().Successors(key, 3)[1]
	n, self, failover := rt.HealthyOwner(key)
	if n != wantNext || !failover {
		t.Fatalf("failover owner = %s (failover=%v), want %s/true", n, failover, wantNext)
	}
	if self != (n == "n1") {
		t.Fatalf("self flag inconsistent: node=%s self=%v", n, self)
	}
	// After the backoff the owner is offered again, but the lookup leaves
	// the breaker alone: the forward that follows takes the trial.
	clk.advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if n, _, failover := rt.HealthyOwner(key); n != owner || failover {
			t.Fatalf("expired backoff: owner = %s failover=%v, want %s/false", n, failover, owner)
		}
	}
	if st := rt.Breakers.State(owner); st != BreakerOpen {
		t.Fatalf("HealthyOwner changed breaker state to %v", st)
	}
	if !call(rt.Breakers, owner, nil) || rt.Breakers.State(owner) != BreakerClosed {
		t.Fatalf("trial after lookup: state = %v, want closed", rt.Breakers.State(owner))
	}
	if n, _, failover := rt.HealthyOwner(key); n != owner || failover {
		t.Fatalf("post-recovery owner = %s failover=%v", n, failover)
	}
}

// TestProberDrivesBreaker boots a flappable health endpoint and checks the
// prober opens the breaker while the peer is down and closes it (firing
// OnHealthy) when it recovers.
func TestProberDrivesBreaker(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()

	peers := map[string]string{"self": "http://127.0.0.1:1", "peer": ts.URL}
	rt, err := NewRouter("self", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Breakers = NewBreakerSet(BreakerOptions{FailureThreshold: 2, OpenBase: 50 * time.Millisecond, OpenMax: 100 * time.Millisecond})
	var recoveries atomic.Int64
	p := NewProber(rt, 20*time.Millisecond)
	p.OnHealthy = func(node string) {
		if node == "peer" {
			recoveries.Add(1)
		}
	}
	p.Start()
	defer p.Stop()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (state=%v)", desc, rt.Breakers.State("peer"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("initial healthy probe", func() bool { return recoveries.Load() > 0 })
	healthy.Store(false)
	waitFor("breaker to open", func() bool { return rt.Breakers.State("peer") == BreakerOpen })
	healthy.Store(true)
	waitFor("breaker to close", func() bool { return rt.Breakers.State("peer") == BreakerClosed })
	if probes, failed := p.Stats(); probes == 0 || failed == 0 {
		t.Fatalf("probe stats: probes=%d failed=%d", probes, failed)
	}
}

// TestProberStopMidProbeIsNotAFailure: stopping the prober while a probe
// is in flight cancels it, which says nothing about the peer's health, so
// even a threshold-1 breaker stays closed.
func TestProberStopMidProbeIsNotAFailure(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	defer ts.Close()
	rt, err := NewRouter("self", map[string]string{"self": "http://127.0.0.1:1", "peer": ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Breakers = NewBreakerSet(BreakerOptions{FailureThreshold: 1})
	p := NewProber(rt, time.Hour)
	p.Timeout = time.Hour
	p.Start()
	<-entered
	p.Stop()
	if st := rt.Breakers.State("peer"); st != BreakerClosed {
		t.Fatalf("breaker after Stop mid-probe = %v, want closed", st)
	}
}
