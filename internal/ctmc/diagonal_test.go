package ctmc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// cooWithDiagonal is the COO assembly of the generator Q and of the
// uniformised matrix P: every R(i,j)/div plus diag(i) on the diagonal,
// summed and sorted by linalg.COO.
func cooWithDiagonal(c *Chain, div float64, diag func(i int) float64) *linalg.CSR {
	coo := linalg.NewCOO(c.N(), c.N())
	for i := 0; i < c.N(); i++ {
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), vals[k]/div)
		}
		coo.Add(i, i, diag(i))
	}
	return coo.ToCSR()
}

// sparseRandomChain has absorbing states and rates spread over six decades.
func sparseRandomChain(t *testing.T, r *rand.Rand) *Chain {
	n := 1 + r.Intn(40)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if r.Intn(5) == 0 {
			continue // absorbing
		}
		for k := r.Intn(6); k > 0; k-- {
			b.Add(i, r.Intn(n), r.ExpFloat64()*math.Pow(10, float64(r.Intn(7)-3)))
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// storedDiagonal returns c with a random self-rate stored on some rows of
// Rates, as a hand-made chain may carry; Builder never stores one.
func storedDiagonal(c *Chain, r *rand.Rand) *Chain {
	coo := linalg.NewCOO(c.N(), c.N())
	for i := 0; i < c.N(); i++ {
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), vals[k])
		}
		if r.Intn(3) == 0 {
			coo.Add(i, i, r.ExpFloat64())
		}
	}
	rates := coo.ToCSR()
	return &Chain{Rates: rates, Exit: rates.RowSums()}
}

// cooEmbedded is the COO assembly of the embedded jump chain, P(i,j) =
// R(i,j)/exit_i with a self-loop on absorbing states: the reference the
// reachability systems are checked against.
func cooEmbedded(c *Chain) *linalg.CSR {
	coo := linalg.NewCOO(c.N(), c.N())
	for i := 0; i < c.N(); i++ {
		if c.Exit[i] == 0 {
			coo.Add(i, i, 1)
			continue
		}
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), vals[k]/c.Exit[i])
		}
	}
	return coo.ToCSR()
}

// cooReach is the COO assembly of the reachability system over the
// embedded chain p: 1 on the diagonal less the self-loop, −P(u,j) towards
// unknown states and Σ P(u,j) over the known states with x_j = 1 on the
// right.
func cooReach(p *linalg.CSR, x linalg.Vector, unknowns, idx []int) (*linalg.CSR, linalg.Vector) {
	coo := linalg.NewCOO(len(unknowns), len(unknowns))
	b := linalg.NewVector(len(unknowns))
	for ui, i := range unknowns {
		coo.Add(ui, ui, 1)
		cols, vals := p.Row(i)
		for k, j := range cols {
			if p := vals[k]; p == 0 {
				continue
			} else if uj := idx[j]; uj >= 0 {
				coo.Add(ui, uj, -p)
			} else if x[j] == 1 {
				b[ui] += p
			}
		}
	}
	return coo.ToCSR(), b
}

// cooAbsorbing is the Builder (COO) assembly Absorbing used before
// building rows directly.
func cooAbsorbing(t *testing.T, c *Chain, mask []bool) *Chain {
	b := NewBuilder(c.N())
	for i := 0; i < c.N(); i++ {
		if mask[i] {
			continue
		}
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			b.Add(i, int(j), vals[k])
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cooBalance is the COO assembly of the balance system stationaryIterative
// used before building the restriction and transposing it.
func cooBalance(c *Chain, set []int, ref int) (*linalg.CSR, linalg.Vector) {
	m := len(set)
	idx := make(map[int]int, m)
	for k, s := range set {
		idx[s] = k
	}
	pos := make([]int, m)
	for k := range set {
		pos[k] = unknown(k, ref)
	}
	pos[ref] = -1
	coo := linalg.NewCOO(m-1, m-1)
	b := linalg.NewVector(m - 1)
	for k, s := range set {
		cols, vals := c.Rates.Row(s)
		for ci, j := range cols {
			kj := idx[int(j)]
			if pos[kj] < 0 {
				continue
			}
			if k == ref {
				b[pos[kj]] += vals[ci]
			} else {
				coo.Add(pos[kj], pos[k], -vals[ci])
			}
		}
		if pos[k] >= 0 {
			coo.Add(pos[k], pos[k], c.Exit[s])
		}
	}
	return coo.ToCSR(), b
}

// cooReward is the COO assembly of the reachability-reward system used
// before building rows directly.
func cooReward(c *Chain, reward linalg.Vector, target []bool, unknowns, idx []int) (*linalg.CSR, linalg.Vector) {
	coo := linalg.NewCOO(len(unknowns), len(unknowns))
	b := linalg.NewVector(len(unknowns))
	for ui, i := range unknowns {
		e := c.Exit[i]
		coo.Add(ui, ui, 1)
		b[ui] = reward[i] / e
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			p := vals[k] / e
			if target[j] || p == 0 {
				continue
			}
			coo.Add(ui, idx[j], -p)
		}
	}
	return coo.ToCSR(), b
}

func bitsEqual(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// vecMul is the forward oracle: dst = v·m, scattering the rows with
// v[i] ≠ 0 in row order into dst cleared to +0.
func vecMul(m *linalg.CSR, v, dst linalg.Vector) {
	dst.Fill(0)
	for i, a := range v {
		if a == 0 {
			continue
		}
		cols, vals := m.Row(i)
		for k, j := range cols {
			dst[j] += a * vals[k]
		}
	}
}

// mulVec is the backward oracle: dst = m·v, each row summed in column
// order from +0.
func mulVec(m *linalg.CSR, v, dst linalg.Vector) {
	for i := range dst {
		var s float64
		cols, vals := m.Row(i)
		for k, j := range cols {
			s += vals[k] * v[j]
		}
		dst[i] = s
	}
}

// splitOf splits a square CSR into its off-diagonal entries and its
// diagonal, the form the iterative solvers take.
func splitOf(m *linalg.CSR) *linalg.Split {
	b := linalg.NewRowBuilder(m.Rows, m.Cols, m.NNZ())
	diag := linalg.NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if int(j) == i {
				diag[i] = vals[k]
			} else {
				b.Add(int(j), vals[k])
			}
		}
		b.EndRow()
	}
	return &linalg.Split{Off: *b.CSR(), Diag: diag}
}

// assertMMatrixSigns checks the sign pattern of the systems RobustSolve
// receives: a positive diagonal and no positive off-diagonal entry. On
// such a split M-matrix Jacobi converges only where Gauss–Seidel does
// (Stein–Rosenberg), which is why the fallback chain goes from
// Gauss–Seidel straight to the dense step.
func assertMMatrixSigns(t *testing.T, what string, a *linalg.Split) {
	t.Helper()
	for i, d := range a.Diag {
		if !(d > 0) {
			t.Fatalf("%s: diagonal entry %d = %v, want > 0", what, i, d)
		}
	}
	for k, v := range a.Off.Val {
		if !(v <= 0) {
			t.Fatalf("%s: off-diagonal entry %d = %v, want ≤ 0", what, k, v)
		}
	}
}

func assertSameVector(t *testing.T, what string, got, want linalg.Vector) {
	t.Helper()
	if !slices.EqualFunc(got, want, bitsEqual) {
		t.Fatalf("%s differs from the COO assembly:\n got %v\nwant %v", what, got, want)
	}
}

func assertSameSplit(t *testing.T, what string, got, want *linalg.Split) {
	t.Helper()
	assertSameCSR(t, what+" (off-diagonal)", &got.Off, &want.Off)
	assertSameVector(t, what+" (diagonal)", got.Diag, want.Diag)
}

func assertSameCSR(t *testing.T, what string, got, want *linalg.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) ||
		!slices.Equal(got.ColIdx, want.ColIdx) || !slices.EqualFunc(got.Val, want.Val, bitsEqual) {
		t.Fatalf("%s differs from the COO assembly:\n got %+v\nwant %+v", what, got, want)
	}
}

// Every matrix derived row by row from Rates — Absorbing, and the
// restricted reachability, reachability-reward and balance systems (in
// split form) — is bit-identical to assembling the same entries through a
// COO, the balance and reward systems are split M-matrices in sign, and
// both directions of the uniformisation operator equal vecMul and
// mulVec on the COO-assembled P bit for bit, on chains with and without a
// stored diagonal.
func TestDiagonalMergeMatchesCOO(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		c := sparseRandomChain(t, r)
		if trial%2 == 1 {
			c = storedDiagonal(c, r)
		}
		uni, err := c.uniformised(false)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.uniformised(true)
		if err != nil {
			t.Fatal(err)
		}
		q := uni.q
		p := cooWithDiagonal(c, q, func(i int) float64 { return 1 - c.Exit[i]/q })
		v := linalg.NewVector(c.N())
		for i := range v {
			if r.Intn(4) != 0 {
				v[i] = r.NormFloat64()
			}
		}
		got, ref := linalg.NewVector(c.N()), linalg.NewVector(c.N())
		uni.p.MulVec(v, got)
		vecMul(p, v, ref)
		assertSameVector(t, "uniformised forward step", got, ref)
		back.p.MulVec(v, got)
		mulVec(p, v, ref)
		assertSameVector(t, "uniformised backward step", got, ref)
		// The reachability system, with random unknown states (never an
		// absorbing one: those always have a known value) and random
		// known values in {0, 1}, against the embedded chain's rows.
		idx := make([]int, c.N())
		x := linalg.NewVector(c.N())
		var unknowns []int
		for i := range idx {
			idx[i] = -1
			switch r.Intn(3) {
			case 0:
				if c.Exit[i] > 0 {
					idx[i] = len(unknowns)
					unknowns = append(unknowns, i)
				}
			case 1:
				x[i] = 1
			}
		}
		a, b, err := c.splitSystem(nil, x, unknowns, idx)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantB := cooReach(cooEmbedded(c), x, unknowns, idx)
		assertSameSplit(t, "reachability system", a, splitOf(wantA))
		assertSameVector(t, "reachability right-hand side", b, wantB)

		mask := make([]bool, c.N())
		for i := range mask {
			mask[i] = r.Intn(3) == 0
		}
		abs, err := c.Absorbing(mask)
		if err != nil {
			t.Fatal(err)
		}
		want := cooAbsorbing(t, c, mask)
		assertSameCSR(t, "Absorbing", abs.Rates, want.Rates)
		assertSameVector(t, "Absorbing exit rates", abs.Exit, want.Exit)

		_, bsccs := graph.BSCCs(c.Rates)
		pos := make([]int, c.N())
		for _, set := range bsccs {
			for k, s := range set {
				pos[s] = k
			}
		}
		for _, set := range bsccs {
			if len(set) < 2 {
				continue
			}
			ref := r.Intn(len(set))
			a, b, err := c.balanceSystem(set, pos, ref)
			if err != nil {
				t.Fatal(err)
			}
			wantA, wantB := cooBalance(c, set, ref)
			assertSameSplit(t, "balance system", a, splitOf(wantA))
			assertSameVector(t, "balance right-hand side", b, wantB)
			assertMMatrixSigns(t, "balance system", a)
		}

		// The reward system over the finite non-target states, classified
		// as untilTarget does.
		target := make([]bool, c.N())
		target[r.Intn(c.N())] = true
		var targets, never []int
		for i, in := range target {
			if in {
				targets = append(targets, i)
			}
		}
		for i, can := range graph.CanReach(c.Rates, targets, nil) {
			if !can {
				never = append(never, i)
			}
		}
		infinite := graph.CanReach(c.Rates, never, target)
		x.Fill(0)
		unknowns = unknowns[:0]
		for i := range idx {
			idx[i] = -1
			switch {
			case infinite[i]:
				x[i] = math.Inf(1)
			case !target[i]:
				idx[i] = len(unknowns)
				unknowns = append(unknowns, i)
			}
		}
		reward := linalg.NewVector(c.N())
		for i := range reward {
			reward[i] = r.Float64()
		}
		a, b, err = c.splitSystem(reward, x, unknowns, idx)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantB = cooReward(c, reward, target, unknowns, idx)
		assertSameSplit(t, "reward system", a, splitOf(wantA))
		assertSameVector(t, "reward right-hand side", b, wantB)
		assertMMatrixSigns(t, "reward system", a)
	}
}

// splitSystem builds the reachability system's rows straight into split
// form; the result is bit-identical to the COO assembly of the same
// entries over the embedded chain, on chains where every state has a few
// summed rates out, self-rates included, so that a self-loop sums into the
// identity's diagonal.
func TestSplitSystemMatchesCOO(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(30)
		coo := linalg.NewCOO(n, n)
		for i := 0; i < n; i++ {
			for k := 1 + r.Intn(5); k > 0; k-- {
				coo.Add(i, r.Intn(n), r.ExpFloat64())
			}
		}
		rates := coo.ToCSR()
		c := &Chain{Rates: rates, Exit: rates.RowSums()}
		idx := make([]int, n)
		x := linalg.NewVector(n)
		var unknowns []int
		for i := range idx {
			idx[i] = -1
			switch r.Intn(3) {
			case 0:
				idx[i] = len(unknowns)
				unknowns = append(unknowns, i)
			case 1:
				x[i] = 1
			}
		}
		a, b, err := c.splitSystem(nil, x, unknowns, idx)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantA, wantB := cooReach(cooEmbedded(c), x, unknowns, idx)
		assertSameSplit(t, "reachability system", a, splitOf(wantA))
		assertSameVector(t, "reachability right-hand side", b, wantB)
	}
}

// assertOperatorMatchesP checks both directions of the uniformisation
// operator for rate q against vecMul and mulVec on the COO-assembled P,
// bit for bit, from v.
func assertOperatorMatchesP(t *testing.T, what string, c *Chain, q float64, v linalg.Vector) {
	t.Helper()
	p := cooWithDiagonal(c, q, func(i int) float64 { return 1 - c.Exit[i]/q })
	got, ref := linalg.NewVector(c.N()), linalg.NewVector(c.N())
	fwd, err := c.uniformisedAt(q, false)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fwd.p.MulVec(v, got)
	vecMul(p, v, ref)
	assertSameVector(t, what+": forward step", got, ref)
	back, err := c.uniformisedAt(q, true)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	back.p.MulVec(v, got)
	mulVec(p, v, ref)
	assertSameVector(t, what+": backward step", got, ref)
}

// Both directions of the operator stay bit-identical on ragged slices: a
// state count that is not a multiple of the slice width, a state no rate
// enters (its column of P holds only the diagonal), a state whose only
// stored rate is a self-rate, a zero diagonal entry (q equal to the
// largest exit rate), and 1-state chains with and without a self-rate.
func TestUniformisedRaggedSlices(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vec := func(n int) linalg.Vector {
		v := linalg.NewVector(n)
		for i := range v {
			if r.Intn(3) != 0 {
				v[i] = r.NormFloat64()
			}
		}
		return v
	}
	rates := func(n int, entries ...float64) *Chain {
		coo := linalg.NewCOO(n, n)
		for k := 0; k < len(entries); k += 3 {
			coo.Add(int(entries[k]), int(entries[k+1]), entries[k+2])
		}
		m := coo.ToCSR()
		return &Chain{Rates: m, Exit: m.RowSums()}
	}
	n := linalg.SliceLanes + 3
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(i, 1+(i+1)%(n-1), 1+r.Float64()) // nothing enters state 0
		b.Add(i, r.Intn(n), r.ExpFloat64())
	}
	b.Add(0, 1, 2)
	ragged, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Chain
		q    float64
	}{
		{"ragged, state 0 entered by nothing", ragged, ragged.uniformisationRate()},
		{"zero diagonal entry", ragged, ragged.MaxExitRate()},
		{"self-rate only", rates(linalg.SliceLanes+1, 2, 2, 1.5, 0, 1, 0.5, 1, 0, 2), 0},
		{"1 state", rates(1), 0},
		{"1 state, self-rate", rates(1, 0, 0, 0.25), 0},
	} {
		q := tc.q
		if q == 0 {
			q = tc.c.uniformisationRate()
		}
		for trial := 0; trial < 20; trial++ {
			assertOperatorMatchesP(t, tc.name, tc.c, q, vec(tc.c.N()))
		}
	}
}

// A backward pass refuses an input vector the sliced operator's padding
// could turn into NaN: a NaN, an infinity, or an entry so large that an
// iterate could overflow.
func TestBackwardRejectsNonFiniteValues(t *testing.T) {
	c := paperExample(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		v := linalg.NewVector(c.N())
		v[1] = bad
		if _, err := c.BackwardTransientContext(t.Context(), v, 1, 0); err == nil || !strings.Contains(err.Error(), "value vector entry 1") {
			t.Errorf("BackwardTransient with %v: err %v", bad, err)
		}
		if _, err := c.CumulativeRewardVectorContext(t.Context(), v, 1, 0); err == nil || !strings.Contains(err.Error(), "reward vector entry 1") {
			t.Errorf("CumulativeRewardVector with %v: err %v", bad, err)
		}
	}
}

// The uniformisation operator checks that P is stochastic: a q far below the exit rates leaves row sums off by rounding, and
// one below the largest exit rate makes a diagonal entry negative.
func TestUniformisedRejectsMisScaledRate(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 0.1)
	b.Add(0, 2, 0.7)
	b.Add(1, 0, 0.3)
	b.Add(2, 0, 1.0/3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    float64
		want string
	}{
		{1e-17, "row 0 sums to"},
		{0.5 * c.MaxExitRate(), "negative transition probability"},
	} {
		for _, backward := range []bool{false, true} {
			_, err := c.uniformisedAt(tc.q, backward)
			if !errors.Is(err, ErrNotStochastic) || !strings.Contains(err.Error(), tc.want) ||
				!strings.HasPrefix(err.Error(), "ctmc: uniformisation produced invalid DTMC: ") {
				t.Errorf("q = %v, backward %v: error %v, want ErrNotStochastic with %q", tc.q, backward, err, tc.want)
			}
		}
	}
}

// The reachability solves check the embedded chain R(i,j)/exit_i row by
// row: a row summing to 0.5, a negative rate, an exit rate that disagrees
// with the rates, and an absorbing state (exit 0) that still has a rate
// each fail with a wrapped ErrNotStochastic, whatever the target.
func TestEmbeddedRejectsNonStochastic(t *testing.T) {
	chain := func(exit linalg.Vector, entries ...float64) *Chain {
		coo := linalg.NewCOO(len(exit), len(exit))
		for k := 0; k < len(entries); k += 3 {
			coo.Add(int(entries[k]), int(entries[k+1]), entries[k+2])
		}
		return &Chain{Rates: coo.ToCSR(), Exit: exit}
	}
	for _, tc := range []struct {
		name string
		c    *Chain
		want string
	}{
		{"row sums to 0.5", chain(linalg.Vector{2, 0}, 0, 1, 1), "row 0 sums to 0.5"},
		{"negative rate", chain(linalg.Vector{1, 1, 0}, 0, 2, 1, 1, 0, -1, 1, 2, 2), "negative transition probability -1"},
		{"exit disagrees", chain(linalg.Vector{3, 1, 0}, 0, 1, 1, 0, 2, 1, 1, 2, 1), "row 0 sums to"},
		{"absorbing with a rate", chain(linalg.Vector{1, 0, 0}, 0, 1, 1, 1, 2, 1), "row 1 sums to"},
	} {
		n := tc.c.N()
		for tgt := range n {
			target := make([]bool, n)
			target[tgt] = true
			_, err := tc.c.UnboundedReachabilityVectorContext(t.Context(), target)
			if !errors.Is(err, ErrNotStochastic) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, target %d: reachability error %v, want ErrNotStochastic with %q", tc.name, tgt, err, tc.want)
			}
			_, err = tc.c.ReachabilityRewardVectorContext(t.Context(), linalg.NewVector(n), target)
			if !errors.Is(err, ErrNotStochastic) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, target %d: reward error %v, want ErrNotStochastic with %q", tc.name, tgt, err, tc.want)
			}
		}
	}
}
