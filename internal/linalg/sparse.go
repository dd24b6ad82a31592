package linalg

import (
	"fmt"
	"sort"
)

// Triplet is a single (row, col, value) entry used while assembling a sparse
// matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format sparse-matrix builder for entries that arrive
// in no particular order. Duplicate entries are summed when converting to
// CSR, which makes assembling transition-rate matrices from guarded
// commands straightforward. Matrices derived row by row from an existing
// CSR use RowBuilder instead: their rows are already sorted.
type COO struct {
	Rows, Cols int
	entries    []Triplet
}

// NewCOO returns an empty builder of the given shape.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends entry (i, j, v). Zero values are dropped.
func (c *COO) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO entry (%d,%d) outside %dx%d", i, j, c.Rows, c.Cols))
	}
	c.entries = append(c.entries, Triplet{i, j, v})
}

// NNZ returns the number of raw (possibly duplicate) entries.
func (c *COO) NNZ() int { return len(c.entries) }

// ToCSR converts the builder into compressed-sparse-row form, summing
// duplicates and dropping entries that cancel to zero.
func (c *COO) ToCSR() *CSR {
	sort.Slice(c.entries, func(a, b int) bool {
		ea, eb := c.entries[a], c.entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for k := 0; k < len(c.entries); {
		e := c.entries[k]
		v := e.Val
		k++
		for k < len(c.entries) && c.entries[k].Row == e.Row && c.entries[k].Col == e.Col {
			v += c.entries[k].Val
			k++
		}
		if v == 0 {
			continue
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// RowBuilder assembles a CSR row by row, in row order, without sorting.
// Like COO it drops zero entries, and it sums at most one extra value per
// row, the diagonal, into the entry at the diagonal's column. A two-term
// sum has the same bits in either order, so the result is bit-identical to
// a COO assembly of the same entries. Diagonal merging needs increasing
// columns within the row; rows built without it keep their columns in the
// order given.
type RowBuilder struct {
	m       *CSR
	diagCol int // -1 once the row's diagonal is placed
	diag    float64
}

// NewRowBuilder returns a builder of the given shape with room for nnz
// entries.
func NewRowBuilder(rows, cols, nnz int) *RowBuilder {
	return &RowBuilder{
		m: &CSR{
			Rows: rows, Cols: cols,
			RowPtr: make([]int, 1, rows+1),
			ColIdx: make([]int, 0, nnz),
			Val:    make([]float64, 0, nnz),
		},
		diagCol: -1,
	}
}

// Diagonal sets the value d to merge into the current row at column j: it
// is added to the value Add gives for column j, or else stored before the
// first larger column.
func (b *RowBuilder) Diagonal(j int, d float64) {
	b.diagCol, b.diag = j, d
}

// Add appends entry (current row, j) with value v.
func (b *RowBuilder) Add(j int, v float64) {
	if b.diagCol >= 0 && j >= b.diagCol {
		if j == b.diagCol {
			v += b.diag
		} else {
			b.push(b.diagCol, b.diag)
		}
		b.diagCol = -1
	}
	b.push(j, v)
}

func (b *RowBuilder) push(j int, v float64) {
	if v != 0 {
		b.m.ColIdx = append(b.m.ColIdx, j)
		b.m.Val = append(b.m.Val, v)
	}
}

// EndRow closes the current row.
func (b *RowBuilder) EndRow() {
	if b.diagCol >= 0 {
		b.push(b.diagCol, b.diag)
		b.diagCol = -1
	}
	b.m.RowPtr = append(b.m.RowPtr, len(b.m.Val))
}

// CSR returns the matrix; every row must have been closed by EndRow.
func (b *RowBuilder) CSR() *CSR {
	if len(b.m.RowPtr) != b.m.Rows+1 {
		panic(fmt.Sprintf("linalg: RowBuilder closed %d of %d rows", len(b.m.RowPtr)-1, b.m.Rows))
	}
	return b.m
}

// CSR is a compressed-sparse-row matrix: the nonzeros of row i are
// Val[RowPtr[i]:RowPtr[i+1]] in columns ColIdx[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) ([]int, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulVec computes dst = m·v (column-vector orientation).
func (m *CSR) MulVec(v Vector, dst Vector) (Vector, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrDimension, m.Rows, m.Cols, len(v))
	}
	if dst == nil {
		dst = NewVector(m.Rows)
	} else if len(dst) != m.Rows {
		return nil, fmt.Errorf("%w: dst len %d, want %d", ErrDimension, len(dst), m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			s += m.Val[k] * v[m.ColIdx[k]]
		}
		dst[i] = s
	}
	return dst, nil
}

// VecMul computes dst = vᵀ·m (row-vector orientation), the hot kernel of
// uniformisation: distributions are row vectors multiplied from the left.
func (m *CSR) VecMul(v Vector, dst Vector) (Vector, error) {
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
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			dst[m.ColIdx[k]] += a * m.Val[k]
		}
	}
	return dst, nil
}

// RowSums returns the vector of row sums (total exit rates for a
// transition-rate matrix without diagonal).
func (m *CSR) RowSums() Vector {
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			s += m.Val[k]
		}
		out[i] = s
	}
	return out
}

// Transpose returns mᵀ in CSR form, needed by backward iterations.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	// Count entries per column of m.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// ToDense expands the matrix; only sensible for small systems and tests.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			d.Add(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// Scale multiplies every stored value by a in place.
func (m *CSR) Scale(a float64) {
	for i := range m.Val {
		m.Val[i] *= a
	}
}
