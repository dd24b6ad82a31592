package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. It is used for small systems (direct
// steady-state solves, the matrix-exponential test oracle) where O(n²)
// storage is acceptable.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero matrix of the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Add increments element (i, j) by x.
func (m *Dense) Add(i, j int, x float64) { m.Data[i*m.Cols+j] += x }

// Clone returns an independent copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by a in place.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddMat performs m += a*other in place.
func (m *Dense) AddMat(a float64, other *Dense) error {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return fmt.Errorf("%w: %dx%d += %dx%d", ErrDimension, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	for i := range m.Data {
		m.Data[i] += a * other.Data[i]
	}
	return nil
}

// Mul returns the product m·other.
func (m *Dense) Mul(other *Dense) (*Dense, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDimension, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewDense(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			row := other.Data[k*other.Cols : (k+1)*other.Cols]
			dst := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range row {
				dst[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec computes dst = m·v. dst may be nil, in which case it is allocated.
func (m *Dense) MulVec(v Vector, dst Vector) (Vector, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrDimension, m.Rows, m.Cols, len(v))
	}
	if dst == nil {
		dst = NewVector(m.Rows)
	} else if len(dst) != m.Rows {
		return nil, fmt.Errorf("%w: dst len %d, want %d", ErrDimension, len(dst), m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
	return dst, nil
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// NormInf returns the maximum absolute row sum.
func (m *Dense) NormInf() float64 {
	var max float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, x := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += math.Abs(x)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SolveDense solves A·x = b by Gaussian elimination with partial pivoting.
// A and b are not modified. It returns ErrSingular for (numerically)
// singular systems.
func SolveDense(a *Dense, b Vector) (Vector, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: SolveDense needs square matrix, got %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: matrix %dx%d, rhs %d", ErrDimension, a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	// Work on copies; the augmented column rides along in x.
	m := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		p := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / p
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for c := col + 1; c < n; c++ {
				m.Add(r, c, -f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	if !x.AllFinite() {
		return nil, ErrSingular
	}
	return x, nil
}

// ErrSingular is returned by direct solvers when the system has no unique
// finite solution.
var ErrSingular = errors.New("linalg: singular system")

func swapRows(m *Dense, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
