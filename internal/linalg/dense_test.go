package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDenseMul(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestDenseMulDimensionError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestDenseMulVecAndVecMul(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mv, err := a.MulVec(Vector{1, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mv[0] != 6 || mv[1] != 15 {
		t.Fatalf("MulVec = %v", mv)
	}
	vm, err := a.VecMul(Vector{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vm[0] != 5 || vm[1] != 7 || vm[2] != 9 {
		t.Fatalf("VecMul = %v", vm)
	}
}

func TestDenseTranspose(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", at)
	}
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	c, err := a.Mul(i3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Data {
		if c.Data[k] != a.Data[k] {
			t.Fatal("A·I != A")
		}
	}
}

func TestSolveDense(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3
	a := DenseFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveDense(a, Vector{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveDenseNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveDense(a, Vector{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveDense(a, Vector{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseRectangularRejected(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := SolveDense(a, Vector{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

// Property: for random well-conditioned systems, A·x == b after solving.
func TestQuickSolveDenseResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(8)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := r.Float64()*2 - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			// Make diagonally dominant so the system is well conditioned.
			a.Add(i, i, rowSum+1)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x, nil)
		if err != nil {
			return false
		}
		return maxDiff(ax, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseNormInf(t *testing.T) {
	a := DenseFromRows([][]float64{{1, -2}, {3, 4}})
	if got := a.NormInf(); got != 7 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestDenseAddMat(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}})
	b := DenseFromRows([][]float64{{10, 20}})
	if err := a.AddMat(0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Fatalf("AddMat: %v", a)
	}
	if err := a.AddMat(1, NewDense(2, 2)); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestDenseScaleAndString(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}})
	a.Scale(3)
	if a.At(0, 1) != 6 {
		t.Fatalf("Scale: %v", a)
	}
	s := a.String()
	if !strings.Contains(s, "3") || !strings.Contains(s, "6") {
		t.Fatalf("String = %q", s)
	}
}

// DenseFromRows builds a matrix from row slices; all rows must have equal
// length.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// VecMul computes dst = vᵀ·m (row vector times matrix), the orientation used
// for probability distributions.
func (m *Dense) VecMul(v Vector, dst Vector) (Vector, error) {
	if len(v) != m.Rows {
		return nil, fmt.Errorf("%w: vec(%d) · %dx%d", ErrDimension, len(v), m.Rows, m.Cols)
	}
	if dst == nil {
		dst = NewVector(m.Cols)
	} else if len(dst) != m.Cols {
		return nil, fmt.Errorf("%w: dst len %d, want %d", ErrDimension, len(dst), m.Cols)
	}
	dst.Fill(0)
	for i := 0; i < m.Rows; i++ {
		a := v[i]
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range row {
			dst[j] += a * b
		}
	}
	return dst, nil
}
