package linalg

import (
	"errors"
	"math/rand"
	"testing"
)

func diagonallyDominantCSR(r *rand.Rand, n int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if r.Float64() < 0.4 {
				v := r.Float64()*2 - 1
				coo.Add(i, j, v)
				if v < 0 {
					rowSum -= v
				} else {
					rowSum += v
				}
			}
		}
		coo.Add(i, i, rowSum+1+r.Float64())
	}
	return coo.ToCSR()
}

func TestGaussSeidelAgreesWithDirect(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(15)
		a := diagonallyDominantCSR(r, n)
		b := NewVector(n)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		direct, err := SolveDense(a.ToDense(), b)
		if err != nil {
			t.Fatal(err)
		}
		gs, _, err := GaussSeidel(splitCSR(a), b, IterOpts{})
		if err != nil {
			t.Fatalf("GaussSeidel: %v", err)
		}
		if maxDiff(gs, direct) > 1e-8 {
			t.Fatalf("GaussSeidel off by %v", maxDiff(gs, direct))
		}
	}
}

func TestIterativeZeroDiagonal(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	a := coo.ToCSR()
	if _, _, err := GaussSeidel(splitCSR(a), Vector{1, 1}, IterOpts{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("GaussSeidel err = %v, want ErrSingular", err)
	}
}

func TestIterativeDimensionErrors(t *testing.T) {
	a := NewCOO(2, 3).ToCSR()
	if _, _, err := GaussSeidel(splitCSR(a), Vector{1, 1}, IterOpts{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	sq := NewCOO(2, 2).ToCSR()
	if _, _, err := GaussSeidel(splitCSR(sq), Vector{1}, IterOpts{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
}

func TestIterativeNoConvergence(t *testing.T) {
	// A non-dominant system with a tiny iteration budget.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, -10)
	coo.Add(1, 0, -10)
	coo.Add(1, 1, 1)
	a := coo.ToCSR()
	if _, _, err := GaussSeidel(splitCSR(a), Vector{1, 1}, IterOpts{MaxIter: 5}); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestConvergenceErrorContext(t *testing.T) {
	// Divergent iteration: the error must carry method, budget and the
	// final (growing) residual, and still unwrap to ErrNoConvergence.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, -10)
	coo.Add(1, 0, -10)
	coo.Add(1, 1, 1)
	a := coo.ToCSR()
	_, stats, err := GaussSeidel(splitCSR(a), Vector{1, 1}, IterOpts{MaxIter: 7})
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *ConvergenceError", err, err)
	}
	if ce.Method != "gauss-seidel" || ce.Iterations != 7 || ce.Residual <= 0 {
		t.Fatalf("incomplete context: %+v", ce)
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("ConvergenceError does not unwrap to ErrNoConvergence")
	}
	if stats.Converged || stats.Iterations != 7 || stats.Residual != ce.Residual {
		t.Fatalf("stats disagree with error: %+v vs %+v", stats, ce)
	}
}

func TestIterStatsOnSuccess(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := diagonallyDominantCSR(r, 10)
	b := NewVector(10)
	for i := range b {
		b[i] = r.Float64()
	}
	_, st, err := GaussSeidel(splitCSR(a), b, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations <= 0 || st.Iterations >= 100000 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Residual < 0 {
		t.Fatalf("negative residual: %+v", st)
	}
}
