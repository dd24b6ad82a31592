package linalg

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// MaxNNZ is the largest number of stored entries, and the largest row or
// column count, a CSR can hold: RowPtr and ColIdx are int32, so every
// offset and index must fit in one. The builders and Transpose panic
// rather than build past it; exploration budgets stop well before it.
const MaxNNZ = math.MaxInt32

// checkShape panics when a rows×cols matrix with nnz entries would not fit
// the int32 indices of a CSR.
func checkShape(what string, rows, cols, nnz int) {
	if rows < 0 || cols < 0 || rows > MaxNNZ || cols > MaxNNZ || nnz > MaxNNZ {
		panic(fmt.Sprintf("linalg: %s of %dx%d with %d entries exceeds the int32 CSR cap of %d", what, rows, cols, nnz, MaxNNZ))
	}
}

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
// duplicates and dropping entries that cancel to zero. It panics past
// MaxNNZ.
func (c *COO) ToCSR() *CSR {
	checkShape("COO.ToCSR", c.Rows, c.Cols, len(c.entries))
	sort.Slice(c.entries, func(a, b int) bool {
		ea, eb := c.entries[a], c.entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int32, c.Rows+1)}
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
		m.ColIdx = append(m.ColIdx, int32(e.Col))
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// RowBuilder assembles a CSR row by row, in row order, without sorting:
// each row keeps its columns in the order given, and must not repeat one.
// Like COO it drops zero entries, so rows given in increasing column order
// are bit-identical to a COO assembly of the same entries. It panics past
// MaxNNZ.
type RowBuilder struct {
	m *CSR
}

// NewRowBuilder returns a builder of the given shape with room for nnz
// entries.
func NewRowBuilder(rows, cols, nnz int) *RowBuilder {
	checkShape("RowBuilder", rows, cols, nnz)
	return &RowBuilder{
		m: &CSR{
			Rows: rows, Cols: cols,
			RowPtr: make([]int32, 1, rows+1),
			ColIdx: make([]int32, 0, nnz),
			Val:    make([]float64, 0, nnz),
		},
	}
}

// Add appends entry (current row, j) with value v, unless v is zero.
func (b *RowBuilder) Add(j int, v float64) {
	if v != 0 {
		checkShape("RowBuilder", b.m.Rows, b.m.Cols, len(b.m.Val)+1)
		b.m.ColIdx = append(b.m.ColIdx, int32(j))
		b.m.Val = append(b.m.Val, v)
	}
}

// EndRow closes the current row.
func (b *RowBuilder) EndRow() {
	b.m.RowPtr = append(b.m.RowPtr, int32(len(b.m.Val)))
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
// Offsets and column indices are int32, which halves their footprint and
// caps a matrix at MaxNNZ (2³¹−1) entries and as many rows and columns.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[k]
	}
	return 0
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

// Transpose returns mᵀ in CSR form, needed by backward searches. It
// panics past MaxNNZ.
func (m *CSR) Transpose() *CSR {
	checkShape("Transpose", m.Cols, m.Rows, m.NNZ())
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int32, m.Cols+1)}
	t.ColIdx = make([]int32, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	// Count entries per column of m.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := slices.Clone(t.RowPtr[:t.Rows])
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = int32(i)
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
			d.Add(i, int(m.ColIdx[k]), m.Val[k])
		}
	}
	return d
}
