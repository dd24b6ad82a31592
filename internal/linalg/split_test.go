package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// splitCSR splits a matrix into the off-diagonal rows and diagonal the
// iterative solvers take (a zero where a row stores no diagonal).
func splitCSR(a *CSR) *Split {
	off := NewRowBuilder(a.Rows, a.Cols, a.NNZ())
	diag := NewVector(a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if int(j) == i {
				diag[i] = vals[k]
			} else {
				off.Add(int(j), vals[k])
			}
		}
		off.EndRow()
	}
	return &Split{Off: *off.CSR(), Diag: diag}
}

// refGaussSeidel is the Gauss–Seidel sweep over the row-with-diagonal
// form that the split form replaced: each row skips its diagonal entry by
// a column test and divides by a diagonal looked up beforehand.
func refGaussSeidel(a *CSR, b Vector, opts IterOpts) (Vector, IterStats, error) {
	opts = opts.withDefaults()
	n := a.Rows
	diag := NewVector(n)
	for i := range diag {
		if diag[i] = a.At(i, i); diag[i] == 0 {
			return nil, IterStats{}, ErrSingular
		}
	}
	x := NewVector(n)
	var lastDelta float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		var maxDelta, maxAbs float64
		for i := 0; i < n; i++ {
			s := b[i]
			cols, vals := a.Row(i)
			for k, j := range cols {
				if int(j) != i {
					s -= vals[k] * x[j]
				}
			}
			nv := s / diag[i]
			if d := math.Abs(nv - x[i]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(nv); a > maxAbs {
				maxAbs = a
			}
			x[i] = nv
		}
		lastDelta = maxDelta
		if maxDelta <= opts.Tol*(1+maxAbs) {
			return x, IterStats{Iterations: iter + 1, Residual: maxDelta, Converged: true}, nil
		}
	}
	return nil, IterStats{Iterations: opts.MaxIter, Residual: lastDelta}, ErrNoConvergence
}

// balanceLike is a seeded system shaped like the CTMC balance and
// reward systems: a positive diagonal and negative off-diagonal entries
// spread over several decades, weakly dominant so that sweeps take many
// iterations.
func balanceLike(r *rand.Rand, n int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for k := 1 + r.Intn(6); k > 0; k-- {
			if j := r.Intn(n); j != i {
				v := r.ExpFloat64() * math.Pow(10, float64(r.Intn(5)-2))
				coo.Add(i, j, -v)
				sum += v
			}
		}
		coo.Add(i, i, sum*(1+0.05*r.Float64())+1e-3)
	}
	return coo.ToCSR()
}

// The split-form sweep is the row-with-diagonal sweep it replaced: on
// seeded systems both return the same bits after the same number of
// iterations, converged or not.
func TestSplitSweepsMatchRowWithDiagonal(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(80)
		a := balanceLike(r, n)
		if trial%3 == 0 {
			a = diagonallyDominantCSR(r, n)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		opts := IterOpts{Tol: 1e-12}
		if trial%5 == 4 {
			opts.MaxIter = 3 // fails to converge: the failures must agree too
		}
		got, gs, gerr := GaussSeidel(splitCSR(a), b, opts)
		want, ws, werr := refGaussSeidel(a, b, opts)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("trial %d: err %v, reference %v", trial, gerr, werr)
		}
		if gs.Iterations != ws.Iterations || math.Float64bits(gs.Residual) != math.Float64bits(ws.Residual) {
			t.Fatalf("trial %d: %d iterations, residual %v; reference %d, %v", trial, gs.Iterations, gs.Residual, ws.Iterations, ws.Residual)
		}
		if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("trial %d: solution differs from the reference sweep:\n got %v\nwant %v", trial, got, want)
		}
	}
}

// A diagonal that cancels to zero in the builder leaves the system
// singular: the sweep and the fallback chain refuse it.
func TestSplitZeroDiagonalIsSingular(t *testing.T) {
	bld := NewSplitBuilder(2, 2)
	bld.Diagonal(1)
	bld.Add(0, -1) // 1 + (−1) = 0
	bld.Add(1, 0.5)
	bld.EndRow()
	bld.Diagonal(1)
	bld.EndRow()
	a := bld.Split()
	if a.Diag[0] != 0 || a.Diag[1] != 1 || a.Off.NNZ() != 1 {
		t.Fatalf("split system = %+v %v", a.Off, a.Diag)
	}
	b := Vector{1, 1}
	if _, _, err := GaussSeidel(a, b, IterOpts{}); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "zero diagonal at row 0") {
		t.Fatalf("GaussSeidel err = %v, want ErrSingular at row 0", err)
	}
	if _, _, _, err := RobustSolve(context.Background(), a, b, IterOpts{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("RobustSolve err = %v, want ErrSingular", err)
	}
}

// The dense step of the fallback chain expands the split system to the
// matrix it came from.
func TestSplitToDense(t *testing.T) {
	a := diagonallyDominantCSR(rand.New(rand.NewSource(4)), 9)
	if got, want := splitCSR(a).ToDense(), a.ToDense(); !slices.Equal(got.Data, want.Data) {
		t.Fatalf("dense expansion differs:\n got %v\nwant %v", got, want)
	}
}

// slicedRows lays the rows of a out as Sliced outputs, in column order.
func slicedRows(a *CSR) Sliced {
	b := NewSlicedBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for range a.RowPtr[i+1] - a.RowPtr[i] {
			b.Count(i)
		}
	}
	if err := b.Alloc(); err != nil {
		panic(err)
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			b.Append(i, int(j), vals[k])
		}
	}
	return b.Sliced()
}

// The sliced product sums each output exactly as a one-sum loop over the
// same entries does, on ragged shapes: row counts that are not a multiple
// of SliceLanes, empty rows, single entries and a 1×1 matrix.
func TestSlicedMatchesRowSums(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(3*SliceLanes+2)
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			for k := r.Intn(2 * SliceLanes); k > 0 && r.Intn(4) != 0; k-- {
				coo.Add(i, r.Intn(n), r.NormFloat64()*math.Pow(10, float64(r.Intn(9)-4)))
			}
		}
		a := coo.ToCSR()
		s := slicedRows(a)
		if s.Rows != n || len(s.Ptr) != (n+SliceLanes-1)/SliceLanes+1 || len(s.Idx)%SliceLanes != 0 {
			t.Fatalf("trial %d: layout %d rows, %d slices, %d slots", trial, s.Rows, len(s.Ptr)-1, len(s.Idx))
		}
		v := NewVector(n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		got, want := NewVector(n), NewVector(n)
		s.MulVec(v, got)
		for i := range want {
			var sum float64
			cols, vals := a.Row(i)
			for k, j := range cols {
				sum += vals[k] * v[j]
			}
			want[i] = sum
		}
		if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("trial %d: sliced product differs:\n got %v\nwant %v", trial, got, want)
		}
	}
}

// A matrix whose shape or entry count passes the int32 cap is refused
// before anything is allocated for it.
func TestCSRCapRefused(t *testing.T) {
	for name, build := range map[string]func(){
		"COO.ToCSR":          func() { NewCOO(MaxNNZ+1, 1).ToCSR() },
		"RowBuilder":         func() { NewRowBuilder(1, MaxNNZ+1, 0) },
		"RowBuilder entries": func() { NewRowBuilder(1, 1, MaxNNZ+1) },
		"Transpose":          func() { (&CSR{Rows: 1, Cols: MaxNNZ + 1, RowPtr: []int32{0, 0}}).Transpose() },
		"Sliced":             func() { NewSlicedBuilder(1, MaxNNZ+1) },
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), "int32 CSR cap") {
					t.Errorf("%s: recovered %v, want the int32 cap panic", name, p)
				}
			}()
			build()
		}()
	}
}
