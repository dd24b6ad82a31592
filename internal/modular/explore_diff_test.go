package modular_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/attacktree"
	"repro/internal/attacktree/fleetgen"
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/modular"
	"repro/internal/prismlang"
	"repro/internal/transform"
)

// fig5Analyzer holds the case-study parameters of the Figure 5 grid.
var fig5Analyzer = core.Analyzer{NMax: 2, Horizon: 1}

// fig5Models builds the 27 Figure 5 cells: three architectures × three
// categories × three protections.
func fig5Models(tb testing.TB) []*modular.Model {
	tb.Helper()
	var out []*modular.Model
	for _, ar := range []*arch.Architecture{arch.Architecture1(), arch.Architecture2(), arch.Architecture3()} {
		for _, cat := range core.Categories {
			for _, prot := range core.Protections {
				out = append(out, buildCell(tb, ar, cat, prot))
			}
		}
	}
	return out
}

func buildCell(tb testing.TB, ar *arch.Architecture, cat transform.Category, prot transform.Protection) *modular.Model {
	tb.Helper()
	res, err := transform.Build(ar, arch.MessageM, fig5Analyzer.TransformOptions(cat, prot))
	if err != nil {
		tb.Fatal(err)
	}
	return res.Model
}

func explore(tb testing.TB, m *modular.Model) *modular.Explored {
	tb.Helper()
	ex, err := m.ExploreContext(tb.Context(), modular.ExploreOpts{})
	if err != nil {
		tb.Fatalf("%s: %v", m.Name, err)
	}
	return ex
}

// checkExplored asserts the invariants of one exploration: every state maps
// back to its own number, states are numbered in BFS discovery order, and
// the chain is bit-identical to ctmc.Builder's assembly of the same raw
// transitions.
func checkExplored(t *testing.T, name string, ex *modular.Explored) {
	t.Helper()
	for i := range ex.N() {
		if got := ex.StateIndex(ex.State(i, nil)); got != i {
			t.Fatalf("%s: StateIndex(State(%d)) = %d", name, i, got)
		}
	}
	b := ctmc.NewBuilder(ex.N())
	firstPred := make([]int, ex.N())
	for i := range firstPred {
		firstPred[i] = -1
	}
	err := modular.ReplayTransitions(ex, func(from, to int, rate float64) {
		b.Add(from, to, rate)
		if to >= 0 && to != from && firstPred[to] < 0 {
			firstPred[to] = from
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := 2; i < ex.N(); i++ {
		if firstPred[i] < firstPred[i-1] {
			t.Fatalf("%s: state %d discovered from %d before state %d from %d", name, i, firstPred[i], i-1, firstPred[i-1])
		}
	}
	want, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertSameChain(t, name, ex.Chain, want)
}

// states decodes every state of ex, in state order.
func states(ex *modular.Explored) [][]int {
	out := make([][]int, ex.N())
	for i := range out {
		out[i] = ex.State(i, nil)
	}
	return out
}

func assertSameChain(t *testing.T, name string, got, want *ctmc.Chain) {
	t.Helper()
	g, w := got.Rates, want.Rates
	if g.Rows != w.Rows || g.Cols != w.Cols || !slices.Equal(g.RowPtr, w.RowPtr) || !slices.Equal(g.ColIdx, w.ColIdx) {
		t.Fatalf("%s: CSR structure differs", name)
	}
	if !sameBits(g.Val, w.Val) || !sameBits(got.Exit, want.Exit) {
		t.Fatalf("%s: CSR values or exit rates differ", name)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestExploreDifferential runs the explorer over the Figure 5 grid, the
// 7-ECU synthetic architecture, the committed PRISM models and a fleetgen
// attack tree, checking state and transition counts against the
// map-indexed, COO-assembled explorer it replaced.
func TestExploreDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 27 Figure 5 cells")
	}
	states, transitions := 0, 0
	for i, m := range fig5Models(t) {
		ex := explore(t, m)
		checkExplored(t, fmt.Sprintf("fig5 cell %d", i), ex)
		states += ex.N()
		transitions += ex.Chain.Rates.NNZ()
	}
	if states != 61236 || transitions != 554148 {
		t.Fatalf("fig5: %d states, %d transitions; want 61236, 554148", states, transitions)
	}

	type sized struct {
		name                string
		model               *modular.Model
		states, transitions int
	}
	cases := []sized{{"synthetic", syntheticModel(t), 19683, 235422}}
	want := map[string][2]int{"paper_fig3.pm": {3, 5}, "tandem_queue.pm": {36, 85}, "tmr_system.pm": {8, 24}, "disclosure_outcomes.pm": {5, 5}}
	files, err := filepath.Glob("../../models/*.pm")
	if err != nil || len(files) != len(want) {
		t.Fatalf("models/*.pm = %v, %v; want %d files", files, err, len(want))
	}
	for _, f := range files {
		w, ok := want[filepath.Base(f)]
		if !ok {
			t.Fatalf("no reference counts for %s", f)
		}
		cases = append(cases, sized{filepath.Base(f), parseModel(t, f), w[0], w[1]})
	}
	cases = append(cases, sized{"fleetgen", fleetModel(t), 128, 704})
	for _, c := range cases {
		ex := explore(t, c.model)
		checkExplored(t, c.name, ex)
		if ex.N() != c.states || ex.Chain.Rates.NNZ() != c.transitions {
			t.Fatalf("%s: %d states, %d transitions; want %d, %d", c.name, ex.N(), ex.Chain.Rates.NNZ(), c.states, c.transitions)
		}
	}
}

func syntheticModel(t *testing.T) *modular.Model {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	return buildCell(t, ar, transform.Availability, transform.Unencrypted)
}

func parseModel(t *testing.T, path string) *modular.Model {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := prismlang.ParseModel(string(src), nil)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// fleetModel compiles the first seed-1 fleetgen tree with every
// countermeasure applied, so repair commands are explored too.
func fleetModel(t *testing.T) *modular.Model {
	trees, err := fleetgen.Generate(fleetgen.Spec{Seed: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, cm := range trees[0].Countermeasures() {
		applied = append(applied, cm.Name)
	}
	c, err := attacktree.Compile(trees[0], attacktree.CompileOptions{Applied: applied})
	if err != nil {
		t.Fatal(err)
	}
	return c.Model
}

// syncModel has four synchronised actions shared by two modules, so
// iterating actions in map order would number states differently from run
// to run.
const syncModel = `ctmc
module m1
  x : [0..3] init 0;
  [a] x < 3 -> 1 : (x'=x+1);
  [b] x > 0 -> 2 : (x'=x-1);
  [c] true -> 0.5 : (x'=0);
  [d] x = 1 -> 0.3 : (x'=3);
endmodule
module m2
  y : [0..2] init 0;
  [a] y < 2 -> 3 : (y'=y+1) + 0.7 : (y'=2);
  [b] y > 0 -> 1 : (y'=0);
  [c] y < 2 -> 1.5 : (y'=2);
  [d] true -> 0.9 : (y'=1);
  [] true -> 0.1 : (y'=0);
endmodule
`

func TestExploreSyncActionOrderDeterministic(t *testing.T) {
	var first *modular.Explored
	for run := 0; run < 20; run++ {
		m, _, err := prismlang.ParseModel(syncModel, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex := explore(t, m)
		if first == nil {
			first = ex
			checkExplored(t, "sync", ex)
			continue
		}
		if !slices.EqualFunc(states(ex), states(first), slices.Equal[[]int]) {
			t.Fatalf("run %d: state order differs: %v vs %v", run, states(ex), states(first))
		}
		assertSameChain(t, fmt.Sprintf("run %d", run), ex.Chain, first.Chain)
	}
}

// architecture2Cell is the Figure 5 cell the allocation guards explore.
func architecture2Cell(tb testing.TB) *modular.Model {
	return buildCell(tb, arch.Architecture2(), transform.Availability, transform.CMAC128)
}

// Every guard, rate and assignment of a transform-built model, and one
// expression with each node kind the transformation does not emit, evaluate
// without allocating in every reachable state.
func TestCompiledExprsZeroAlloc(t *testing.T) {
	m := architecture2Cell(t)
	ex := explore(t, m)
	x := modular.VarRef{Index: 0, Name: m.Vars[0].Name}
	fns := []modular.EvalFunc{modular.Compile(modular.ITE{
		Cond: modular.Not(modular.Gt(x, modular.IntLit(0))),
		Then: modular.Call{Fn: "max", Args: []modular.Expr{x, modular.Add(x, modular.IntLit(1)), modular.DoubleLit(0.5)}},
		Else: modular.Call{Fn: "mod", Args: []modular.Expr{modular.Unary{Op: modular.OpNeg, X: x}, modular.IntLit(3)}},
	})}
	for _, mod := range m.Modules {
		for _, cmd := range mod.Commands {
			fns = append(fns, modular.Compile(cmd.Guard))
			for _, u := range cmd.Updates {
				fns = append(fns, modular.Compile(u.Rate))
				for _, a := range u.Assigns {
					fns = append(fns, modular.Compile(a.Expr))
				}
			}
		}
	}
	all := states(ex)
	allocs := testing.AllocsPerRun(3, func() {
		for _, st := range all {
			for _, f := range fns {
				if _, err := f(st); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d compiled expressions over %d states: %v allocations per pass, want 0", len(fns), ex.N(), allocs)
	}
}

// Exploration allocates only when its flat buffers grow, not per state.
func TestExploreAllocsPerState(t *testing.T) {
	m := architecture2Cell(t)
	states := 0
	allocs := testing.AllocsPerRun(3, func() { states = explore(t, m).N() })
	if perState := allocs / float64(states); perState > 2 {
		t.Fatalf("explore: %.0f allocations for %d states = %.2f per state, want at most 2", allocs, states, perState)
	}
}

var exploredSink *modular.Explored

// BenchmarkExploreFig5 explores all 27 Figure 5 cells per op.
func BenchmarkExploreFig5(b *testing.B) {
	models := fig5Models(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			exploredSink = explore(b, m)
		}
	}
}
