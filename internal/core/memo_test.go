package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/transform"
)

// memoCase is one chain of the memo differential: the cell it is prepared
// with (by PrepareChainContext, so every cell sharing the chain comes
// along) and the horizons and accuracies it is solved at.
type memoCase struct {
	name     string
	ar       func() *arch.Architecture
	cat      transform.Category
	prot     transform.Protection
	horizons []float64
	accs     []float64
}

// memoCases are builtin 1–3 on the chain without the message-protection
// variable (two violated labels) and the 19,683-state synthetic chain.
func memoCases() []memoCase {
	var cases []memoCase
	for i, ar := range []func() *arch.Architecture{arch.Architecture1, arch.Architecture2, arch.Architecture3} {
		cases = append(cases, memoCase{
			name: fmt.Sprintf("builtin:%d", i+1), ar: ar, cat: transform.Confidentiality, prot: transform.Unencrypted,
			horizons: []float64{0.25, 1, 2.5, 4}, accs: []float64{1e-6, 1e-8, 1e-10, 1e-12},
		})
	}
	syn := func() *arch.Architecture {
		a, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
		if err != nil {
			panic(err) // a fixed, valid spec
		}
		return a
	}
	return append(cases, memoCase{
		name: "synthetic-7x2", ar: syn, cat: transform.Availability, prot: transform.Unencrypted,
		horizons: []float64{0.5, 1.5}, accs: []float64{1e-6, 1e-12},
	})
}

// prepare returns every cell of a freshly prepared chain, so its memo is
// empty.
func (mc memoCase) prepare(t *testing.T) []*Prepared {
	t.Helper()
	p, err := Analyzer{NMax: 2}.PrepareChainContext(context.Background(), mc.ar(), arch.MessageM, mc.cat, mc.prot)
	if err != nil {
		t.Fatal(err)
	}
	return p.chain.cells
}

// memoSolve is one solve of a differential run: a horizon and accuracy,
// SkipSteadyState, and the cell solved (-1 for every cell together).
type memoSolve struct {
	h, acc float64
	skip   bool
	cell   int
}

// memoRefs are cold solves on fresh chains: each cell's time fraction per
// (horizon, accuracy) and its steady-state probability.
type memoRefs struct {
	fracs  map[[2]float64][]float64
	steady []float64
}

func (mc memoCase) refs(t *testing.T) memoRefs {
	t.Helper()
	ctx := context.Background()
	refs := memoRefs{fracs: make(map[[2]float64][]float64)}
	for _, h := range mc.horizons {
		for _, acc := range mc.accs {
			rs, err := Analyzer{NMax: 2, Horizon: h, Accuracy: acc, SkipSteadyState: true}.AnalyzeCellsContext(ctx, mc.prepare(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				refs.fracs[[2]float64{h, acc}] = append(refs.fracs[[2]float64{h, acc}], r.TimeFraction)
			}
		}
	}
	rs, err := Analyzer{NMax: 2}.AnalyzeCellsContext(ctx, mc.prepare(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		refs.steady = append(refs.steady, r.SteadyState)
	}
	return refs
}

// check runs solve on cells and compares every result with the cold
// reference.
func (refs memoRefs) check(ctx context.Context, cells []*Prepared, s memoSolve) error {
	ps, at := cells, make([]int, len(cells))
	for i := range at {
		at[i] = i
	}
	if s.cell >= 0 {
		ps, at = cells[s.cell:s.cell+1], []int{s.cell}
	}
	rs, err := Analyzer{NMax: 2, Horizon: s.h, Accuracy: s.acc, SkipSteadyState: s.skip}.AnalyzeCellsContext(ctx, ps)
	if err != nil {
		return fmt.Errorf("%+v: %w", s, err)
	}
	for k, r := range rs {
		i := at[k]
		want := math.NaN()
		if !s.skip {
			want = refs.steady[i]
		}
		if f := refs.fracs[[2]float64{s.h, s.acc}][i]; !sameFloat(r.TimeFraction, f) {
			return fmt.Errorf("%+v cell %d: time fraction %.17g, cold %.17g", s, i, r.TimeFraction, f)
		}
		if !sameFloat(r.SteadyState, want) {
			return fmt.Errorf("%+v cell %d: steady state %.17g, cold %.17g", s, i, r.SteadyState, want)
		}
	}
	return nil
}

// orders returns the differential's solve sequences over the (horizon,
// accuracy) pairs: ascending horizons, descending, each pair twice in a
// row, and seeded random. Solve k alternates SkipSteadyState and cycles
// through the cells one at a time and all together, so labels join the
// memo at different points of the record.
func (mc memoCase) orders(cells int) map[string][]memoSolve {
	var pairs [][2]float64
	for _, h := range mc.horizons {
		for _, acc := range mc.accs {
			pairs = append(pairs, [2]float64{h, acc})
		}
	}
	desc := slices.Clone(pairs)
	slices.Reverse(desc)
	var twice [][2]float64
	for _, p := range pairs {
		twice = append(twice, p, p)
	}
	random := slices.Clone(pairs)
	rng := rand.New(rand.NewPCG(22, 1))
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	solves := func(ps [][2]float64) []memoSolve {
		out := make([]memoSolve, len(ps))
		for k, p := range ps {
			out[k] = memoSolve{h: p[0], acc: p[1], skip: k%2 == 0, cell: (k+1)%(cells+1) - 1}
		}
		return out
	}
	return map[string][]memoSolve{
		"ascending": solves(pairs), "descending": solves(desc), "repeated": solves(twice), "random": solves(random),
	}
}

// TestMemoMatchesColdSolve solves each chain in several horizon orders on
// one Prepared per order and checks every result against a cold solve on
// a fresh chain: the memo must never change a bit.
func TestMemoMatchesColdSolve(t *testing.T) {
	for _, mc := range memoCases() {
		t.Run(mc.name, func(t *testing.T) {
			refs := mc.refs(t)
			for name, order := range mc.orders(len(refs.steady)) {
				if raceEnabled && mc.name == "synthetic-7x2" && name != "random" {
					continue // one order of the large chain under the race detector
				}
				cells := mc.prepare(t)
				for _, s := range order {
					if err := refs.check(context.Background(), cells, s); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		})
	}
}

// TestMemoConcurrentSolves runs eight goroutines of seeded random solves
// on one Prepared under one shared span, as a service batch's items do;
// run it under -race.
func TestMemoConcurrentSolves(t *testing.T) {
	mc := memoCases()[0]
	refs := mc.refs(t)
	cells := mc.prepare(t)
	ctx, batch := obs.NewTracer(&rewardSpans{ended: make(map[string]map[string]int64)}, false).StartSpan(context.Background(), "batch")
	defer batch.End()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 8))
			for k := 0; k < 12; k++ {
				s := memoSolve{
					h:    mc.horizons[rng.IntN(len(mc.horizons))],
					acc:  mc.accs[rng.IntN(len(mc.accs))],
					skip: rng.IntN(2) == 0,
					cell: rng.IntN(len(cells)+1) - 1,
				}
				if err := refs.check(ctx, cells, s); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls. The reward pass asks before each product, so with steady state
// skipped a solve stops after exactly n products.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// rewardSpans records the attributes of every ctmc.cumulative_reward span
// and the names of all spans.
type rewardSpans struct {
	mu    sync.Mutex
	names []string
	attrs []map[string]int64
	ended map[string]map[string]int64
}

func (s *rewardSpans) Emit(e *obs.Event) {
	if e.Kind != obs.EventSpan {
		return
	}
	attrs := make(map[string]int64)
	for _, a := range e.Attrs {
		attrs[a.Key] = a.Int
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names = append(s.names, e.Name)
	s.ended[e.Name] = attrs
	if e.Name == "ctmc.cumulative_reward" {
		s.attrs = append(s.attrs, attrs)
	}
}

// traced runs solve under a "solve" span of a fresh tracer and returns the
// spans it emitted.
func traced(t *testing.T, solve func(ctx context.Context) error) *rewardSpans {
	t.Helper()
	sink := &rewardSpans{ended: make(map[string]map[string]int64)}
	ctx, sp := obs.NewTracer(sink, false).StartSpan(context.Background(), "solve")
	err := solve(ctx)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	return sink
}

// labelCells returns one cell of each violated label of the chain.
func labelCells(cells []*Prepared) []*Prepared {
	var out []*Prepared
	for _, p := range cells {
		if !slices.ContainsFunc(out, func(q *Prepared) bool { return q.label == p.label }) {
			out = append(out, p)
		}
	}
	return out
}

// A cancelled extension keeps the terms it recorded, and a cancelled
// restart for a new label records nothing: later solves still match the
// cold ones and resume where the record ends.
func TestMemoCancelledExtension(t *testing.T) {
	mc := memoCases()[0]
	refs := mc.refs(t)
	cells := mc.prepare(t)
	byLabel := labelCells(cells)
	if len(byLabel) < 2 {
		t.Fatalf("%s: %d labels, want two", mc.name, len(byLabel))
	}
	a, b := slices.Index(cells, byLabel[0]), slices.Index(cells, byLabel[1])
	solve := func(ctx context.Context, cell int, h float64) error {
		_, err := Analyzer{NMax: 2, Horizon: h, SkipSteadyState: true}.AnalyzeCellsContext(ctx, cells[cell:cell+1])
		return err
	}
	if err := solve(newCancelAfter(100), a, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled extension: error %v, want context.Canceled", err)
	}
	spans := traced(t, func(ctx context.Context) error { return solve(ctx, a, 4) })
	if got := spans.attrs[0]; got["reused"] != 101 || got["matvecs"] != got["fg_right"]-100 {
		t.Fatalf("after a cancelled extension: %v, want the 101 recorded terms reused", got)
	}
	if err := solve(newCancelAfter(50), b, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled restart: error %v, want context.Canceled", err)
	}
	for _, h := range mc.horizons {
		for _, cell := range []int{b, a, -1} {
			if err := refs.check(context.Background(), cells, memoSolve{h: h, acc: 1e-10, skip: true, cell: cell}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A memo hit runs no product and solves no steady state: the reward span
// says how many terms it reused, no ctmc.steadystate span is emitted, and
// the enclosing span carries steady_reused. Cold spans carry no reused
// attribute.
func TestMemoHitSpans(t *testing.T) {
	cells := memoCases()[0].prepare(t)
	p := cells[0]
	solve := func(h float64) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := Analyzer{NMax: 2, Horizon: h}.AnalyzePreparedContext(ctx, p)
			return err
		}
	}
	cold := traced(t, solve(2))
	if got := cold.attrs[0]; got["matvecs"] != got["fg_right"] || len(cold.attrs) != 1 {
		t.Fatalf("cold reward spans %v", cold.attrs)
	}
	if _, ok := cold.attrs[0]["reused"]; ok || !slices.Contains(cold.names, "ctmc.steadystate") {
		t.Fatalf("cold solve: reward attrs %v, spans %v", cold.attrs[0], cold.names)
	}
	if _, ok := cold.ended["solve"]["steady_reused"]; ok {
		t.Fatal("cold solve marked steady_reused")
	}
	hit := traced(t, solve(1))
	if got := hit.attrs[0]; got["matvecs"] != 0 || got["reused"] != got["fg_right"]+1 {
		t.Fatalf("memo hit: reward attrs %v", got)
	}
	if slices.Contains(hit.names, "ctmc.steadystate") || hit.ended["solve"]["steady_reused"] != 1 {
		t.Fatalf("memo hit: spans %v, solve attrs %v", hit.names, hit.ended["solve"])
	}
}

// A horizon whose record would hold more floats than the chain has
// transitions (1000 years on builtin:1: about 141k terms against 5,769
// transitions) is solved on a fresh pass that leaves the record as it
// was, with the cold result. Under the race detector the horizon is 45
// years, the first whole year past the bound.
func TestMemoBeyondBound(t *testing.T) {
	mc := memoCases()[0]
	far := 1000.0
	if raceEnabled {
		far = 45
	}
	cold, err := Analyzer{NMax: 2, Horizon: far, SkipSteadyState: true}.AnalyzeCellsContext(context.Background(), mc.prepare(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	cells := mc.prepare(t)
	solve := func(h float64) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			rs, err := Analyzer{NMax: 2, Horizon: h, SkipSteadyState: true}.AnalyzeCellsContext(ctx, cells[:1])
			if err == nil && h == far && !sameFloat(rs[0].TimeFraction, cold[0].TimeFraction) {
				return fmt.Errorf("%g years: time fraction %.17g, cold %.17g", h, rs[0].TimeFraction, cold[0].TimeFraction)
			}
			return err
		}
	}
	recorded := traced(t, solve(4)).attrs[0]["fg_right"] + 1
	if got := traced(t, solve(far)).attrs[0]; got["matvecs"] != got["fg_right"] || got["reused"] != 0 {
		t.Fatalf("%g years: reward attrs %v, want a fresh pass", far, got)
	}
	got := traced(t, solve(5)).attrs[0]
	if got["reused"] != recorded || got["matvecs"] != got["fg_right"]+1-recorded {
		t.Fatalf("after %g years: reward attrs %v, want the %d terms recorded before reused", far, got, recorded)
	}
	if nnz := int64(cells[0].Transitions()); got["fg_right"]+1 > nnz {
		t.Fatalf("record of %d terms exceeds the %d-transition bound", got["fg_right"]+1, nnz)
	}
}

// TestMemoSeriesMatchesPerHorizon extends each chain's reward series over
// ascending horizons, as fresh horizons on a warm model do, and checks every
// fraction against a per-horizon ExpectedTimeFractionContext on the same
// chain, bit for bit. The first input follows message m under AES-128 over
// a 15-year vehicle life at the engine's default accuracy.
func TestMemoSeriesMatchesPerHorizon(t *testing.T) {
	life := memoCase{
		name: "builtin:1 aes128", ar: arch.Architecture1, cat: transform.Confidentiality, prot: transform.AES128,
		horizons: []float64{0.25, 0.5, 1, 2, 5, 10, 15}, accs: []float64{0},
	}
	for _, mc := range []memoCase{life, memoCases()[0]} {
		t.Run(mc.name, func(t *testing.T) {
			cells := labelCells(mc.prepare(t))
			var (
				names []string
				masks [][]bool
			)
			for _, p := range cells {
				names, masks = append(names, p.label), append(masks, p.mask)
			}
			ch := cells[0].chain
			for _, acc := range mc.accs {
				for _, h := range mc.horizons {
					got, err := ch.series.FractionsContext(t.Context(), names, masks, h, acc)
					if err != nil {
						t.Fatal(err)
					}
					for i, mask := range masks {
						want, err := cells[0].Explored.Chain.ExpectedTimeFractionContext(t.Context(), ch.init, mask, h, acc)
						if err != nil {
							t.Fatal(err)
						}
						if !sameFloat(got[i], want) {
							t.Errorf("%s at t = %g, accuracy %g: series %.17g, per-horizon call %.17g", names[i], h, acc, got[i], want)
						}
					}
				}
			}
		})
	}
}
