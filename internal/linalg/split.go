package linalg

import (
	"fmt"
	"math"
)

// Split is a square system A in split form, as the iterative solvers sweep
// it: Off holds the off-diagonal entries of each row in column order and
// Diag the diagonal, so a sweep subtracts a row's off-diagonal terms and
// divides by its diagonal without testing columns.
type Split struct {
	Off  CSR
	Diag Vector
}

// check reports a non-square system, a right-hand side of the wrong length
// or the first zero diagonal entry.
func (a *Split) check(method string, b Vector) error {
	n := a.Off.Rows
	if a.Off.Cols != n || len(a.Diag) != n || len(b) != n {
		return fmt.Errorf("%w: %s A %dx%d with diagonal %d, b %d", ErrDimension, method, a.Off.Rows, a.Off.Cols, len(a.Diag), len(b))
	}
	for i, d := range a.Diag {
		if d == 0 {
			return fmt.Errorf("linalg: zero diagonal at row %d: %w", i, ErrSingular)
		}
	}
	return nil
}

// ToDense expands the system; only sensible for small systems and tests.
func (a *Split) ToDense() *Dense {
	d := a.Off.ToDense()
	for i, v := range a.Diag {
		d.Add(i, i, v)
	}
	return d
}

// SplitBuilder assembles a Split row by row, in row order. Like RowBuilder
// it drops zero off-diagonal entries, and an entry in the row's own column
// is summed into the diagonal instead of being stored, so the diagonal
// holds the value a COO assembly would have stored there (0 where it
// dropped the entry).
type SplitBuilder struct {
	rows *RowBuilder
	diag Vector
}

// NewSplitBuilder returns a builder of an n×n system with room for nnz
// off-diagonal entries.
func NewSplitBuilder(n, nnz int) *SplitBuilder {
	return &SplitBuilder{rows: NewRowBuilder(n, n, nnz), diag: NewVector(n)}
}

// row is the index of the row being built.
func (b *SplitBuilder) row() int { return len(b.rows.m.RowPtr) - 1 }

// Diagonal sets the diagonal of the current row to d, before the row's
// entries are added; an entry Add gives for the row's own column is added
// to it.
func (b *SplitBuilder) Diagonal(d float64) { b.diag[b.row()] = d }

// Add appends entry (current row, j) with value v.
func (b *SplitBuilder) Add(j int, v float64) {
	if i := b.row(); j == i {
		b.diag[i] += v
		return
	}
	b.rows.Add(j, v)
}

// EndRow closes the current row.
func (b *SplitBuilder) EndRow() { b.rows.EndRow() }

// Split returns the system; every row must have been closed by EndRow.
func (b *SplitBuilder) Split() *Split {
	return &Split{Off: *b.rows.CSR(), Diag: b.diag}
}

// residual returns ‖b − A·x‖∞.
func (a *Split) residual(x, b Vector) float64 {
	var r float64
	for i := range b {
		s := b[i] - a.Diag[i]*x[i]
		cols, vals := a.Off.Row(i)
		for k, j := range cols {
			s -= vals[k] * x[j]
		}
		r = max(r, math.Abs(s))
	}
	return r
}
