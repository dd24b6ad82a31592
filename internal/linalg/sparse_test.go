package linalg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCSR(r *rand.Rand, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.Add(i, j, r.Float64()*4-2)
			}
		}
	}
	return coo.ToCSR()
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1.5)
	coo.Add(0, 1, 2.5)
	coo.Add(1, 0, 3)
	m := coo.ToCSR()
	if m.At(0, 1) != 4 {
		t.Fatalf("duplicate not summed: %v", m.At(0, 1))
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("entry lost: %v", m.At(1, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestCOOCancellationDropped(t *testing.T) {
	coo := NewCOO(1, 1)
	coo.Add(0, 0, 2)
	coo.Add(0, 0, -2)
	m := coo.ToCSR()
	if m.NNZ() != 0 {
		t.Fatalf("cancelled entry kept, NNZ = %d", m.NNZ())
	}
}

func TestCOOZeroDropped(t *testing.T) {
	coo := NewCOO(1, 1)
	coo.Add(0, 0, 0)
	if coo.NNZ() != 0 {
		t.Fatal("zero entry stored")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(1, 1).Add(1, 0, 1)
}

func TestCSRVecMulMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(r, 5+r.Intn(10), 5+r.Intn(10), 0.3)
		d := m.ToDense()
		v := NewVector(m.Rows)
		for i := range v {
			v[i] = r.Float64()
		}
		sp, err := m.VecMul(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		de, err := d.VecMul(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if maxDiff(sp, de) > 1e-12 {
			t.Fatalf("CSR.VecMul disagrees with dense by %v", maxDiff(sp, de))
		}
	}
}

// Property: transposing twice is the identity, and (i,j) of m equals (j,i)
// of mᵀ.
func TestQuickCSRTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomCSR(r, 1+r.Intn(12), 1+r.Intn(12), 0.4)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		mt := m.Transpose()
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, j := range cols {
				if mt.At(int(j), i) != vals[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRowSums(t *testing.T) {
	coo := NewCOO(2, 3)
	coo.Add(0, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 1, 5)
	m := coo.ToCSR()
	s := m.RowSums()
	if s[0] != 3 || s[1] != 5 {
		t.Fatalf("RowSums = %v", s)
	}
}

func TestCSRAtMissing(t *testing.T) {
	m := NewCOO(2, 2).ToCSR()
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry not zero")
	}
}

// VecMul computes dst = vᵀ·m (row-vector orientation), the
// reference product of the tests.
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
