package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/modular"
)

// TestModelCacheHitKeepsRequestBudgets checks a request whose exploration
// budget the cached model exceeds fails exactly as on a cold engine — the
// same message, unwrapping to modular.ErrBudgetExceeded — for the state
// and the transition budget alike, on architecture chains and attack trees.
func TestModelCacheHitKeepsRequestBudgets(t *testing.T) {
	ctx := context.Background()
	cell := AnalysisRequest{Architecture: "builtin:1", Category: "c", Protection: "none"}
	tree := *treeRequest()
	for _, tc := range []struct {
		name                string
		warm                AnalysisRequest
		states, transitions int
	}{
		{"states", cell, 10, 0},
		{"transitions", cell, 0, 10},
		{"tree/states", tree, 2, 0},
		{"tree/transitions", tree, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.warm
			req.MaxStates, req.MaxTransitions = tc.states, tc.transitions
			_, _, cold := NewEngine(EngineOptions{}).Run(ctx, &req)
			if !errors.Is(cold, modular.ErrBudgetExceeded) {
				t.Fatalf("cold engine: err = %v, want the budget error", cold)
			}

			e := NewEngine(EngineOptions{})
			warm := tc.warm
			if _, _, err := e.Run(ctx, &warm); err != nil {
				t.Fatal(err)
			}
			_, _, err := e.Run(ctx, &req)
			if !errors.Is(err, modular.ErrBudgetExceeded) || err.Error() != cold.Error() {
				t.Fatalf("after a default-budget request: err = %v, want %v", err, cold)
			}
			if e.models.Stats().Hits < 1 {
				t.Fatal("the budgeted request did not reach the cached model")
			}
		})
	}
}

// TestModelWaiterRetriesAfterLeaderBudget checks a request that joins the
// model build of a request with a smaller exploration budget does not
// inherit that budget's error: it builds the model under its own, for an
// architecture chain and an attack tree alike.
func TestModelWaiterRetriesAfterLeaderBudget(t *testing.T) {
	ctx := context.Background()
	cell := AnalysisRequest{Architecture: "builtin:1", Category: "c", Protection: "none", SkipSteadyState: true}
	for _, tc := range []struct {
		name string
		req  *AnalysisRequest
		key  func(rr *resolvedRequest) string
	}{
		{"architecture", &cell, func(rr *resolvedRequest) string {
			return modelKey(rr.archCanon, rr.msg, rr.an.TransformOptions(rr.cat, rr.prot))
		}},
		{"tree", treeRequest(), func(rr *resolvedRequest) string { return treeModelKey(rr.archCanon, rr.treeOpts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(EngineOptions{})
			rr, err := e.resolve(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			mkey := tc.key(rr)
			started, release := make(chan struct{}), make(chan struct{})
			joined := make(chan struct{})
			e.models.flight.joined = func(key string) {
				if key == mkey {
					close(joined)
				}
			}
			leader := make(chan error, 1)
			go func() {
				_, err, _ := e.models.flight.Do(mkey, func() (any, error) {
					close(started)
					<-release
					return nil, &modular.BudgetError{Resource: "states", Limit: 2}
				})
				leader <- err
			}()
			<-started
			waiter := make(chan error, 1)
			go func() {
				_, _, err := e.Run(ctx, tc.req)
				waiter <- err
			}()
			<-joined
			close(release)
			if err := <-leader; !errors.Is(err, modular.ErrBudgetExceeded) {
				t.Fatalf("leader: err = %v", err)
			}
			if err := <-waiter; err != nil {
				t.Fatalf("waiter inherited the leader's budget error: %v", err)
			}
		})
	}
}

// TestPropertyUsesRequestedCell checks a property request is checked
// against the labels and rewards of its own cell when another cell of the
// same chain filled the model cache: on builtin:3, a/none asked after
// c/none warmed the shared chain must give the availability values. The
// reachability property is the same for both categories there (an exposed
// endpoint needs an exposed route first); the exploitable-time reward and
// the steady-state probability tell them apart.
func TestPropertyUsesRequestedCell(t *testing.T) {
	ctx := context.Background()
	props := []string{`P=? [ F<=1 "violated" ]`, `R{"violated_time"}=? [ C<=1 ]`, `S=? [ "violated" ]`}
	cell := func(cat, prop string) *AnalysisRequest {
		return &AnalysisRequest{Architecture: "builtin:3", Category: cat, Protection: "none", Property: prop}
	}
	value := func(e *Engine, cat, prop string) float64 {
		t.Helper()
		out, _, err := e.Run(ctx, cell(cat, prop))
		if err != nil {
			t.Fatal(err)
		}
		return out.Property.Value
	}
	distinct := 0
	for _, prop := range props {
		wantA := value(NewEngine(EngineOptions{}), "a", prop)
		wantC := value(NewEngine(EngineOptions{}), "c", prop)
		if wantA != wantC {
			distinct++
		}
		e := NewEngine(EngineOptions{})
		value(e, "c", prop)
		if got := value(e, "a", prop); got != wantA {
			t.Errorf("%s on a/none after c/none = %v, want the availability value %v (confidentiality gives %v)",
				prop, got, wantA, wantC)
		}
		if st := e.models.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("model cache %+v, want a/none served by c/none's chain", st)
		}
	}
	if distinct < 2 {
		t.Fatalf("only %d of %d properties tell c/none and a/none apart", distinct, len(props))
	}
}

// TestGridMatchesPerCell compares grid-mode results, solved one chain at a
// time through the structural model cache, with each cell prepared and
// solved alone, with lumping and steady state on and off, on a cold and on
// a warm cache (a single-cell request fills it first). builtin:3 is used
// because its uncovered availability and confidentiality cells differ.
func TestGridMatchesPerCell(t *testing.T) {
	ctx := context.Background()
	for _, flags := range []struct{ lump, skip bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		for _, warm := range []bool{false, true} {
			e := NewEngine(EngineOptions{})
			if warm {
				req := AnalysisRequest{Architecture: "builtin:3", NMax: 1, Category: "a", Protection: "aes"}
				if _, _, err := e.Run(ctx, &req); err != nil {
					t.Fatal(err)
				}
			}
			req := AnalysisRequest{Architecture: "builtin:3", NMax: 1, UseLumping: flags.lump, SkipSteadyState: flags.skip}
			out, _, err := e.Run(ctx, &req)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != 9 {
				t.Fatalf("%d grid results", len(out.Results))
			}
			an := core.Analyzer{NMax: 1, UseLumping: flags.lump, SkipSteadyState: flags.skip}
			i := 0
			for _, cat := range core.Categories {
				for _, prot := range core.Protections {
					p, err := an.PrepareContext(ctx, arch.Architecture3(), arch.MessageM, cat, prot)
					if err != nil {
						t.Fatal(err)
					}
					r, err := an.AnalyzePreparedContext(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					want, got := toAnalysisResult(r), out.Results[i]
					i++
					if got.Category != want.Category || got.Protection != want.Protection ||
						got.States != want.States || got.Transitions != want.Transitions || got.LumpedStates != want.LumpedStates ||
						!sameValue(got.ExploitableTime, want.ExploitableTime) || (got.SteadyState == nil) != (want.SteadyState == nil) ||
						(got.SteadyState != nil && !sameValue(*got.SteadyState, *want.SteadyState)) {
						t.Errorf("lump=%t skip=%t warm=%t: %+v, want %+v", flags.lump, flags.skip, warm, got, want)
					}
				}
			}
			if st := e.models.Stats(); st.Misses != 2 || st.Size != 2 {
				t.Errorf("model cache %+v, want one entry per chain", st)
			}
		}
	}
}

// sameValue is bit equality on amd64 and relTol 1e-7 elsewhere, where
// fused multiply–adds may move the last bits.
func sameValue(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-7*math.Max(math.Abs(want), 1e-9)
}
