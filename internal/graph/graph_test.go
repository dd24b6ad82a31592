package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// edges accumulates a graph on n vertices as unit entries of a COO, the
// input the chain builders hand to the graph search. Parallel edges sum.
type edges struct{ coo *linalg.COO }

func newEdges(n int) edges { return edges{linalg.NewCOO(n, n)} }

func (e edges) add(u, v int) { e.coo.Add(u, v, 1) }

func (e edges) csr() *linalg.CSR { return e.coo.ToCSR() }

func sortedComps(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		cc := append([]int(nil), c...)
		sort.Ints(cc)
		out[i] = cc
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func TestSCCsSimpleCycle(t *testing.T) {
	e := newEdges(3)
	e.add(0, 1)
	e.add(1, 2)
	e.add(2, 0)
	g := e.csr()
	_, comps := SCCs(g)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("comps = %v", comps)
	}
}

func TestSCCsChain(t *testing.T) {
	e := newEdges(4)
	e.add(0, 1)
	e.add(1, 2)
	e.add(2, 3)
	g := e.csr()
	comp, comps := SCCs(g)
	if len(comps) != 4 {
		t.Fatalf("want 4 singleton comps, got %v", comps)
	}
	// Reverse topological order: the sink (3) must be emitted first.
	if comp[3] >= comp[0] {
		t.Fatalf("ordering not reverse-topological: comp=%v", comp)
	}
}

func TestSCCsTwoCyclesWithBridge(t *testing.T) {
	// {0,1} -> {2,3}
	e := newEdges(4)
	e.add(0, 1)
	e.add(1, 0)
	e.add(1, 2)
	e.add(2, 3)
	e.add(3, 2)
	g := e.csr()
	_, comps := SCCs(g)
	got := sortedComps(comps)
	if len(got) != 2 || got[0][0] != 0 || got[0][1] != 1 || got[1][0] != 2 || got[1][1] != 3 {
		t.Fatalf("comps = %v", got)
	}
}

func TestBSCCs(t *testing.T) {
	// 0 -> {1,2} cycle (bottom); 0 -> 3 (absorbing, bottom); 0 is transient.
	e := newEdges(4)
	e.add(0, 1)
	e.add(1, 2)
	e.add(2, 1)
	e.add(0, 3)
	e.add(3, 3)
	g := e.csr()
	_, bsccs := BSCCs(g)
	got := sortedComps(bsccs)
	if len(got) != 2 {
		t.Fatalf("bsccs = %v", got)
	}
	if !(len(got[0]) == 2 && got[0][0] == 1 && got[0][1] == 2) {
		t.Fatalf("bsccs = %v", got)
	}
	if !(len(got[1]) == 1 && got[1][0] == 3) {
		t.Fatalf("bsccs = %v", got)
	}
}

func TestBSCCAbsorbingWithoutSelfLoop(t *testing.T) {
	// A vertex with no outgoing edges is its own bottom SCC.
	e := newEdges(2)
	e.add(0, 1)
	g := e.csr()
	_, bsccs := BSCCs(g)
	if len(bsccs) != 1 || len(bsccs[0]) != 1 || bsccs[0][0] != 1 {
		t.Fatalf("bsccs = %v", bsccs)
	}
}

func TestReachable(t *testing.T) {
	e := newEdges(5)
	e.add(0, 1)
	e.add(1, 2)
	e.add(3, 4)
	g := e.csr()
	seen := Reachable(g, []int{0}, nil)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Reachable = %v", seen)
		}
	}
}

func TestCanReach(t *testing.T) {
	e := newEdges(4)
	e.add(0, 1)
	e.add(1, 2)
	e.add(3, 3)
	g := e.csr()
	can := CanReach(g, []int{2}, nil)
	want := []bool{true, true, true, false}
	for i := range want {
		if can[i] != want[i] {
			t.Fatalf("CanReach = %v", can)
		}
	}
}

func TestCanReachAvoiding(t *testing.T) {
	// 0 -> 1 -> 2 and 0 -> 3 -> 2: avoiding 1 leaves the route through 3;
	// avoiding 1 and 3 cuts 0 off. 4 -> 2 stays.
	e := newEdges(5)
	e.add(0, 1)
	e.add(1, 2)
	e.add(0, 3)
	e.add(3, 2)
	e.add(4, 2)
	g := e.csr()
	for _, tc := range []struct {
		avoid []bool
		want  []bool
	}{
		{[]bool{false, true, false, false, false}, []bool{true, false, true, true, true}},
		{[]bool{false, true, false, true, false}, []bool{false, false, true, false, true}},
	} {
		can := CanReach(g, []int{2}, tc.avoid)
		for i := range tc.want {
			if can[i] != tc.want[i] {
				t.Fatalf("avoid %v: CanReach = %v, want %v", tc.avoid, can, tc.want)
			}
		}
	}
}

// Stored entries that are zero or negative are not edges.
func TestNonPositiveEntriesAreNotEdges(t *testing.T) {
	g := &linalg.CSR{Rows: 3, Cols: 3, RowPtr: []int32{0, 2, 3, 3}, ColIdx: []int32{1, 2, 0}, Val: []float64{0, -1, 1}}
	if seen := Reachable(g, []int{0}, nil); seen[1] || seen[2] {
		t.Fatalf("Reachable = %v", seen)
	}
	_, bsccs := BSCCs(g)
	if got := sortedComps(bsccs); len(got) != 2 || got[0][0] != 0 || got[1][0] != 2 {
		t.Fatalf("bsccs = %v", got)
	}
}

func TestSCCsLargeChainNoStackOverflow(t *testing.T) {
	// A 200k-vertex path would overflow a recursive Tarjan; the iterative
	// one must handle it.
	n := 200000
	e := newEdges(n)
	for i := 0; i < n-1; i++ {
		e.add(i, i+1)
	}
	g := e.csr()
	_, comps := SCCs(g)
	if len(comps) != n {
		t.Fatalf("got %d comps", len(comps))
	}
}

// Property: SCC partition is consistent — vertices u, v share a component
// iff u reaches v and v reaches u.
func TestQuickSCCConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		e := newEdges(n)
		for k := r.Intn(3 * n); k > 0; k-- {
			e.add(r.Intn(n), r.Intn(n))
		}
		g := e.csr()
		comp, _ := SCCs(g)
		for u := 0; u < n; u++ {
			fromU := Reachable(g, []int{u}, nil)
			for v := 0; v < n; v++ {
				fromV := Reachable(g, []int{v}, nil)
				mutual := fromU[v] && fromV[u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every vertex can reach some BSCC, and no edge leaves a BSCC.
func TestQuickBSCCClosure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		e := newEdges(n)
		for k := 0; k < 3*n; k++ {
			e.add(r.Intn(n), r.Intn(n))
		}
		g := e.csr()
		comp, bsccs := BSCCs(g)
		inBSCC := make([]bool, n)
		bsccComp := make(map[int]bool)
		for _, c := range bsccs {
			for _, v := range c {
				inBSCC[v] = true
			}
			bsccComp[comp[c[0]]] = true
		}
		// No edge leaves a BSCC.
		for u := 0; u < n; u++ {
			if !inBSCC[u] {
				continue
			}
			cols, vals := g.Row(u)
			for k, v := range cols {
				if vals[k] > 0 && comp[v] != comp[u] {
					return false
				}
			}
		}
		// Every vertex reaches a BSCC member.
		var members []int
		for v, in := range inBSCC {
			if in {
				members = append(members, v)
			}
		}
		can := CanReach(g, members, nil)
		for v := 0; v < n; v++ {
			if !can[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
