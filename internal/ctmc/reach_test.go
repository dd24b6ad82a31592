package ctmc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// chainFromRates builds a chain from a dense rate table; the diagonal is
// ignored, as Builder ignores self-loops.
func chainFromRates(t *testing.T, rates [][]float64) *Chain {
	t.Helper()
	b := NewBuilder(len(rates))
	for i, row := range rates {
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func reach(t *testing.T, c *Chain, target []bool) linalg.Vector {
	t.Helper()
	x, err := c.UnboundedReachabilityVectorContext(t.Context(), target)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// Gambler's ruin on 0..4 with a fair coin, absorbing at 0 and 4:
// P[reach 4 | start i] = i/4.
func gamblersRuin(t *testing.T) *Chain {
	return chainFromRates(t, [][]float64{
		{0, 0, 0, 0, 0},
		{1, 0, 1, 0, 0},
		{0, 1, 0, 1, 0},
		{0, 0, 1, 0, 1},
		{0, 0, 0, 0, 0},
	})
}

func TestUnboundedReachabilityGamblersRuin(t *testing.T) {
	x := reach(t, gamblersRuin(t), []bool{false, false, false, false, true})
	for i := 0; i <= 4; i++ {
		if want := float64(i) / 4; math.Abs(x[i]-want) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestUnboundedReachabilityUnreachableIsZero(t *testing.T) {
	// 2 disconnected absorbing states.
	x := reach(t, chainFromRates(t, [][]float64{{0, 0}, {0, 0}}), []bool{false, true})
	if x[0] != 0 || x[1] != 1 {
		t.Fatalf("x = %v", x)
	}
}

func TestUnboundedReachabilityEmptyTarget(t *testing.T) {
	x := reach(t, paperExample(t), []bool{false, false, false})
	if x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Fatalf("x = %v", x)
	}
}

func TestUnboundedReachabilityBadMask(t *testing.T) {
	if _, err := paperExample(t).UnboundedReachabilityVectorContext(t.Context(), []bool{true}); err == nil {
		t.Fatal("expected error")
	}
}

// A state that reaches the target almost surely through an arbitrarily
// rare escape reports exactly 1: the qualitative classification decides
// it, no iterative solve could.
func TestUnboundedReachabilityProb1Precomputation(t *testing.T) {
	// 0 and 2 swap at rate 1, and 0 escapes to the absorbing target 1 at
	// rate 1e-12: a sweep would stop at once near 1e-12.
	x := reach(t, chainFromRates(t, [][]float64{{0, 1e-12, 1}, {0, 0, 0}, {1, 0, 0}}), []bool{false, true, false})
	if x[0] != 1 || x[2] != 1 {
		t.Fatalf("P = %v, want exactly 1 from states 0 and 2 (prob-1 precomputation)", x)
	}
}

// With a competing absorbing trap the probability is genuinely fractional
// and must still be solved.
func TestUnboundedReachabilityFractionalWithBadBSCC(t *testing.T) {
	x := reach(t, chainFromRates(t, [][]float64{
		{0, 0.3, 0.7},
		{0, 0, 0}, // target
		{0, 0, 0}, // trap (bad BSCC)
	}), []bool{false, true, false})
	if math.Abs(x[0]-0.3) > 1e-9 || x[1] != 1 || x[2] != 0 {
		t.Fatalf("x = %v", x)
	}
}

// Unknown states feeding into almost-sure states receive their mass
// through the right-hand side.
func TestUnboundedReachabilityMixedKnowns(t *testing.T) {
	// 3 -> {0 (almost-sure region), 2 (trap)}; 0 surely escapes to
	// target 1.
	x := reach(t, chainFromRates(t, [][]float64{
		{0, 0.1, 0, 0},
		{0, 0, 0, 0}, // target
		{0, 0, 0, 0}, // trap
		{0.5, 0, 0.5, 0},
	}), []bool{false, true, false, false})
	if x[0] != 1 {
		t.Fatalf("x[0] = %v, want 1", x[0])
	}
	if math.Abs(x[3]-0.5) > 1e-9 {
		t.Fatalf("x[3] = %v, want 0.5", x[3])
	}
}

// Property: reachability probabilities satisfy the fixed-point equation
// x = P·x of the embedded chain on non-target states with x = 1 on
// targets (within solver tolerance), and a prob-0 state sends no mass to
// positive states.
func TestQuickUnboundedReachabilityFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(7)
		c := randomChain(r, n, 3)
		target := make([]bool, n)
		target[r.Intn(n)] = true
		x, err := c.UnboundedReachabilityVectorContext(context.Background(), target)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if target[i] {
				if x[i] != 1 {
					return false
				}
				continue
			}
			s := x[i] // an absorbing state's self-loop
			if c.Exit[i] > 0 {
				s = 0
				cols, vals := c.Rates.Row(i)
				for k, j := range cols {
					s += vals[k] / c.Exit[i] * x[j]
				}
			}
			if x[i] > 0 && math.Abs(s-x[i]) > 1e-6 {
				return false
			}
			if x[i] == 0 && s > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// embeddedReach is the reference reachability solve: P[F target] on the
// embedded chain's rows (cooEmbedded), classified as the DTMC solve did —
// 0 where the target is unreachable, 1 on the target and where no bottom
// SCC free of target states is reachable — with the rest solved by
// Gauss–Seidel from the COO-assembled system.
func embeddedReach(t *testing.T, c *Chain, target []bool) linalg.Vector {
	t.Helper()
	p := cooEmbedded(c)
	var targets, bad []int
	for i, in := range target {
		if in {
			targets = append(targets, i)
		}
	}
	_, bsccs := graph.BSCCs(p)
	for _, set := range bsccs {
		if !slices.ContainsFunc(set, func(s int) bool { return target[s] }) {
			bad = append(bad, set...)
		}
	}
	canReach := graph.CanReach(p, targets, nil)
	canReachBad := graph.CanReach(p, bad, nil)
	x := linalg.NewVector(c.N())
	idx := make([]int, c.N())
	var unknowns []int
	for i := range idx {
		idx[i] = -1
		switch {
		case target[i] || canReach[i] && !canReachBad[i]:
			x[i] = 1
		case canReach[i]:
			idx[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	if len(unknowns) == 0 {
		return x
	}
	a, b := cooReach(p, x, unknowns, idx)
	y, _, err := linalg.GaussSeidel(splitOf(a), b, linalg.IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for ui, i := range unknowns {
		x[i] = clampUnit(y[ui])
	}
	return x
}

// reducibleChain has 3–5 closed classes (absorbing states or strongly
// connected rings of up to 4 states, with extra internal rates) and up to
// 20 further states with 1–4 rates each to anywhere, spread over five
// decades.
func reducibleChain(t *testing.T, r *rand.Rand) *Chain {
	t.Helper()
	rate := func() float64 { return r.ExpFloat64() * math.Pow(10, float64(r.Intn(5)-2)) }
	var classes [][]int
	n := 0
	for k := 3 + r.Intn(3); k > 0; k-- {
		size := 1 + r.Intn(4)
		class := make([]int, size)
		for i := range class {
			class[i] = n + i
		}
		classes = append(classes, class)
		n += size
	}
	closed := n
	n += 1 + r.Intn(20)
	b := NewBuilder(n)
	for _, class := range classes {
		for k, s := range class {
			if len(class) > 1 {
				b.Add(s, class[(k+1)%len(class)], rate())
				b.Add(s, class[r.Intn(len(class))], rate())
			}
		}
	}
	for s := closed; s < n; s++ {
		for k := 1 + r.Intn(4); k > 0; k-- {
			b.Add(s, r.Intn(n), rate())
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// denseLongRun is the per-BSCC oracle of the long-run vector of mask:
// each BSCC's π_B from stationaryDirect and, for each BSCC, a dense solve
// of the probability of being absorbed into it from every transient state
// of the embedded chain. Each entry is a probability and is clamped to
// [0, 1], as the fold clamps its own: on an ill-conditioned transient
// system the dense solves' round-off can exceed 1 (by 1.7e-11 on
// stalledFoldChain).
func denseLongRun(t *testing.T, c *Chain, mask []bool) linalg.Vector {
	t.Helper()
	n := c.N()
	p := cooEmbedded(c)
	_, bsccs := graph.BSCCs(c.Rates)
	pos, idx := make([]int, n), make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for _, set := range bsccs {
		for k, s := range set {
			pos[s] = k
		}
	}
	var transient []int
	for i := range idx {
		idx[i] = -1
		if pos[i] < 0 {
			idx[i] = len(transient)
			transient = append(transient, i)
		}
	}
	out := linalg.NewVector(n)
	for _, set := range bsccs {
		pi, err := c.stationaryDirect(set, pos)
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		for k, s := range set {
			if mask[s] {
				v += pi[k]
			}
		}
		for _, s := range set {
			out[s] = v
		}
		if v == 0 || len(transient) == 0 {
			continue
		}
		a := linalg.NewDense(len(transient), len(transient))
		b := linalg.NewVector(len(transient))
		for u, s := range transient {
			a.Add(u, u, 1)
			cols, vals := p.Row(s)
			for k, j := range cols {
				switch {
				case idx[j] >= 0:
					a.Add(u, idx[j], -vals[k])
				case slices.Contains(set, int(j)):
					b[u] += vals[k]
				}
			}
		}
		x, err := linalg.SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for u, s := range transient {
			out[s] += v * x[u]
		}
	}
	for i := range out {
		out[i] = clampUnit(out[i])
	}
	return out
}

// assertDiracMatchesVector checks that vec, the long-run vector of mask,
// lies in [0, 1] and that the long-run probability of mask from each
// single state is vec's entry bit for bit.
func assertDiracMatchesVector(t *testing.T, c *Chain, mask []bool, vec linalg.Vector) {
	t.Helper()
	for i, v := range vec {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("long-run vector entry %d = %v, outside [0, 1]", i, v)
		}
		p, err := c.SteadyStateProbabilityContext(t.Context(), dirac(c, i), mask)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(p, v) {
			t.Fatalf("long-run probability from state %d = %v, vector entry %v", i, p, v)
		}
	}
}

// embeddedReferenceSeed seeds TestReachabilityMatchesEmbeddedReference's
// trials (see embeddedReferenceTrial).
const embeddedReferenceSeed = 26

// embeddedReferenceTrial draws one trial of
// TestReachabilityMatchesEmbeddedReference from r: a reducible chain with
// at least three BSCCs, an initial distribution, a long-run mask and a
// reachability target.
func embeddedReferenceTrial(t *testing.T, r *rand.Rand) (c *Chain, init linalg.Vector, mask, target []bool) {
	t.Helper()
	c = reducibleChain(t, r)
	n := c.N()
	if _, bsccs := graph.BSCCs(c.Rates); len(bsccs) < 3 {
		t.Fatalf("%d BSCCs, want at least 3", len(bsccs))
	}
	init = linalg.NewVector(n)
	for i := range init {
		init[i] = r.Float64()
	}
	init.Normalize1()
	mask = make([]bool, n)
	for i := range mask {
		mask[i] = r.Intn(2) == 0
	}
	target = make([]bool, n)
	for k := 1 + r.Intn(3); k > 0; k-- {
		target[r.Intn(n)] = true
	}
	return c, init, mask, target
}

// On reducible chains with three or more BSCCs the long-run vector and
// probability stay within 1e-5 of the dense per-BSCC oracle (the fold's
// transient solve stops on Gauss–Seidel's change between sweeps, not on
// its error) and agree with each other bit for bit; unbounded
// reachability of an arbitrary target stays within 1e-12 of the
// embedded-chain reference, every state that reaches the target almost
// surely reads exactly 1, and the system solved for the rest has the
// sign pattern of a split M-matrix.
func TestReachabilityMatchesEmbeddedReference(t *testing.T) {
	r := rand.New(rand.NewSource(embeddedReferenceSeed))
	ctx := t.Context()
	for trial := 0; trial < 200; trial++ {
		c, init, mask, target := embeddedReferenceTrial(t, r)
		n := c.N()
		oracle := denseLongRun(t, c, mask)
		vec, err := c.SteadyStateVectorContext(ctx, mask)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			if math.Abs(vec[i]-oracle[i]) > 1e-5 {
				t.Fatalf("trial %d: long-run value of state %d = %v, dense oracle %v", trial, i, vec[i], oracle[i])
			}
		}
		p, err := c.SteadyStateProbabilityContext(ctx, init, mask)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-init.Dot(oracle)) > 1e-5 {
			t.Fatalf("trial %d: long-run probability %v, dense oracle %v", trial, p, init.Dot(oracle))
		}
		assertDiracMatchesVector(t, c, mask, vec)

		got := reach(t, c, target)
		want := embeddedReach(t, c, target)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: P[F target] of state %d = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		var targets, never []int
		for i, in := range target {
			if in {
				targets = append(targets, i)
			}
		}
		canReach := graph.CanReach(c.Rates, targets, nil)
		for i, can := range canReach {
			if !can {
				never = append(never, i)
			}
		}
		// The unknowns classified as untilTarget does.
		x := linalg.NewVector(n)
		idx := make([]int, n)
		var unknowns []int
		for i, escapes := range graph.CanReach(c.Rates, never, target) {
			if !escapes && got[i] != 1 {
				t.Fatalf("trial %d: state %d reaches the target almost surely but reads %v", trial, i, got[i])
			}
			idx[i] = -1
			switch {
			case !escapes:
				x[i] = 1
			case !canReach[i]:
			case !target[i]:
				idx[i] = len(unknowns)
				unknowns = append(unknowns, i)
			}
		}
		a, _, err := c.splitSystem(nil, x, unknowns, idx)
		if err != nil {
			t.Fatal(err)
		}
		assertMMatrixSigns(t, fmt.Sprintf("trial %d: reachability system", trial), a)
	}
}

// solveSpans records the attributes of every ended span by name and the
// solver attempts.
type solveSpans struct {
	obs.AttemptRecorder
	mu    sync.Mutex
	attrs map[string]map[string]any
}

func (s *solveSpans) Emit(e *obs.Event) {
	s.AttemptRecorder.Emit(e)
	if e.Kind != obs.EventSpan {
		return
	}
	attrs := make(map[string]any)
	for _, a := range e.Attrs {
		attrs[a.Key] = a.Value()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs[e.Name] = attrs
}

// With solver divergence injected once, unbounded reachability escalates
// from Gauss–Seidel to the dense step, records both attempts and still answers;
// its span carries the method and attempt count as the reachability-reward
// span does.
func TestChaosUnboundedReachabilityEscalates(t *testing.T) {
	in, err := fault.Parse("solver.diverge:n=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
	defer fault.Disable()
	sink := &solveSpans{attrs: make(map[string]map[string]any)}
	ctx, root := obs.NewTracer(sink, false).StartSpan(t.Context(), "test")
	c := gamblersRuin(t)
	target := []bool{false, false, false, false, true}
	x, err := c.UnboundedReachabilityVectorContext(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReachabilityRewardVectorContext(ctx, linalg.Vector{0, 1, 1, 1, 0}, []bool{true, false, false, false, true}); err != nil {
		t.Fatal(err)
	}
	root.End()
	for i := 0; i <= 4; i++ {
		if want := float64(i) / 4; math.Abs(x[i]-want) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
	attempts := sink.Attempts()
	if len(attempts) != 3 || attempts[0].Outcome != obs.AttemptInjected || attempts[1].Outcome != obs.AttemptOK ||
		attempts[1].Method != linalg.MethodDense || attempts[2].Method != linalg.MethodGaussSeidel {
		t.Fatalf("attempts = %+v, want injected, dense, then the reward's gauss-seidel", attempts)
	}
	for name, want := range map[string]map[string]any{
		"ctmc.unbounded_reach":     {"method": linalg.MethodDense, "attempts": int64(2), "unknowns": int64(3)},
		"ctmc.reachability_reward": {"method": linalg.MethodGaussSeidel, "attempts": int64(1), "unknowns": int64(3)},
	} {
		got := sink.attrs[name]
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: %s = %v, want %v (attrs %v)", name, k, got[k], v, got)
			}
		}
		if _, ok := got["iterations"]; !ok {
			t.Errorf("%s: no iterations attribute (attrs %v)", name, got)
		}
	}
}

// ergodicChain has 2–31 states on a ring, with 0–3 further rates out of
// each state to anywhere, spread over five decades.
func ergodicChain(t *testing.T, r *rand.Rand) *Chain {
	t.Helper()
	rate := func() float64 { return r.ExpFloat64() * math.Pow(10, float64(r.Intn(5)-2)) }
	n := 2 + r.Intn(30)
	b := NewBuilder(n)
	for s := 0; s < n; s++ {
		b.Add(s, (s+1)%n, rate())
		for k := r.Intn(4); k > 0; k-- {
			b.Add(s, r.Intn(n), rate())
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every long-run value lies in [0, 1], S=? [true] included, and the
// probability from a single state is the vector's entry bit for bit, on
// seeded ergodic and reducible chains.
func TestLongRunInUnitInterval(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 600; trial++ {
		var c *Chain
		if trial < 500 {
			c = ergodicChain(t, r)
		} else {
			c = reducibleChain(t, r)
		}
		all, some := make([]bool, c.N()), make([]bool, c.N())
		for i := range all {
			all[i], some[i] = true, r.Intn(2) == 0
		}
		for _, mask := range [][]bool{all, some} {
			vec, err := c.SteadyStateVectorContext(t.Context(), mask)
			if err != nil {
				t.Fatal(err)
			}
			assertDiracMatchesVector(t, c, mask, vec)
		}
	}
}

// eightBSCCChain has 40 transient states on a ring, each leaking into one
// of 8 BSCCs, BSCC b a two-state cycle whose second state has stationary
// probability 1/(b+2). Its mask holds those second states, so every BSCC
// gives it a distinct non-zero value.
func eightBSCCChain(t *testing.T) (*Chain, []bool) {
	t.Helper()
	const transient, bsccs = 40, 8
	b := NewBuilder(transient + 2*bsccs)
	mask := make([]bool, transient+2*bsccs)
	for s := 0; s < transient; s++ {
		b.Add(s, (s+1)%transient, 1)
		b.Add(s, transient+2*(s%bsccs), 0.1)
	}
	for k := 0; k < bsccs; k++ {
		first := transient + 2*k
		b.Add(first, first+1, 1)
		b.Add(first+1, first, float64(k+1))
		mask[first+1] = true
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, mask
}

// The long-run analyses run one reachability solve per mask whose BSCC
// values differ, however many BSCCs there are, and none for a mask every
// BSCC gives the same value.
func TestLongRunOneSolvePerMask(t *testing.T) {
	c, mask := eightBSCCChain(t)
	all := make([]bool, c.N())
	for i := range all {
		all[i] = true
	}
	for _, tc := range []struct {
		name string
		mask []bool
		want int
	}{{"distinct", mask, 1}, {"equal", all, 0}} {
		for _, entry := range []struct {
			name string
			call func(ctx context.Context) error
		}{
			{"vector", func(ctx context.Context) error {
				_, err := c.SteadyStateVectorContext(ctx, tc.mask)
				return err
			}},
			{"probability", func(ctx context.Context) error {
				_, err := c.SteadyStateProbabilityContext(ctx, dirac(c, 0), tc.mask)
				return err
			}},
		} {
			rec := &obs.AttemptRecorder{}
			ctx, root := obs.NewTracer(rec, false).StartSpan(t.Context(), "test")
			if err := entry.call(ctx); err != nil {
				t.Fatal(err)
			}
			root.End()
			if got := len(rec.Attempts()); got != tc.want {
				t.Errorf("%s, %s mask: %d solver attempts, want %d", entry.name, tc.name, got, tc.want)
			}
		}
	}
}

// stalledFoldChain returns trial 19 of
// TestReachabilityMatchesEmbeddedReference and its mask: the long-run
// fold's system over its 7 transient states is one on which Gauss–Seidel
// stalls (a change between sweeps of 2.67e-7 after its 500,000 sweeps), so
// the solve escalates to the dense step with no fault injected.
func stalledFoldChain(t *testing.T) (*Chain, []bool) {
	t.Helper()
	r := rand.New(rand.NewSource(embeddedReferenceSeed))
	for range 19 {
		embeddedReferenceTrial(t, r)
	}
	c, _, mask, _ := embeddedReferenceTrial(t, r)
	return c, mask
}

// The long-run vector escalates its one solve from Gauss–Seidel to the
// dense step, records both attempts and matches the dense oracle within
// 1e-12: on a chain with 8 BSCCs whose Gauss–Seidel attempt fails by an
// injected divergence, and on a chain whose transient system Gauss–Seidel
// cannot solve within its budget.
func TestChaosLongRunEscalates(t *testing.T) {
	eight, eightMask := eightBSCCChain(t)
	stalled, stalledMask := stalledFoldChain(t)
	for _, tc := range []struct {
		name   string
		c      *Chain
		mask   []bool
		faults string // fault spec armed for the solve, if any
		first  string // outcome of the Gauss–Seidel attempt
	}{
		{"injected", eight, eightMask, "solver.diverge:n=1", obs.AttemptInjected},
		{"stalled", stalled, stalledMask, "", obs.AttemptError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != "" {
				in, err := fault.Parse(tc.faults, 1)
				if err != nil {
					t.Fatal(err)
				}
				fault.Enable(in)
				defer fault.Disable()
			}
			rec := &obs.AttemptRecorder{}
			ctx, root := obs.NewTracer(rec, false).StartSpan(t.Context(), "test")
			vec, err := tc.c.SteadyStateVectorContext(ctx, tc.mask)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			attempts := rec.Attempts()
			if len(attempts) != 2 || attempts[0].Method != linalg.MethodGaussSeidel || attempts[0].Outcome != tc.first ||
				attempts[1].Method != linalg.MethodDense || attempts[1].Outcome != obs.AttemptOK {
				t.Fatalf("attempts = %+v, want gauss-seidel (%s), then dense (ok)", attempts, tc.first)
			}
			oracle := denseLongRun(t, tc.c, tc.mask)
			for i := range vec {
				if math.Abs(vec[i]-oracle[i]) > 1e-12 {
					t.Fatalf("state %d: long-run value %v, dense oracle %v", i, vec[i], oracle[i])
				}
			}
		})
	}
}
