package ctmc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// cooWithDiagonal is the COO assembly Generator and Uniformized used
// before they merged the diagonal into copied rows: every R(i,j)/div plus
// diag(i) on the diagonal, summed and sorted by linalg.COO.
func cooWithDiagonal(c *Chain, div float64, diag func(i int) float64) *linalg.CSR {
	coo := linalg.NewCOO(c.N(), c.N())
	for i := 0; i < c.N(); i++ {
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			coo.Add(i, j, vals[k]/div)
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

func assertSameCSR(t *testing.T, what string, got, want *linalg.CSR) {
	t.Helper()
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) ||
		!slices.Equal(got.ColIdx, want.ColIdx) || !slices.EqualFunc(got.Val, want.Val, bits) {
		t.Fatalf("%s differs from the COO assembly:\n got %+v\nwant %+v", what, got, want)
	}
}

// Generator and Uniformized merge the diagonal into the copied rows; the
// result is bit-identical to assembling the same entries through a COO.
func TestDiagonalMergeMatchesCOO(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := sparseRandomChain(t, r)
		assertSameCSR(t, "Generator", c.Generator(), cooWithDiagonal(c, 1, func(i int) float64 { return -c.Exit[i] }))
		uni, q, err := c.Uniformized(0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCSR(t, "Uniformized", uni.P, cooWithDiagonal(c, q, func(i int) float64 { return 1 - c.Exit[i]/q }))
	}
	// A hand-made chain whose Rates carry a diagonal entry, which the
	// merge must sum with the generator's diagonal as the COO does.
	c := &Chain{Rates: &linalg.CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 2, 3}, ColIdx: []int{0, 1, 1}, Val: []float64{0.5, 2, 3}}, Exit: linalg.Vector{2, 0}}
	assertSameCSR(t, "Generator with a stored diagonal", c.Generator(), cooWithDiagonal(c, 1, func(i int) float64 { return -c.Exit[i] }))
}
