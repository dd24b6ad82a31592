package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestVectorBasics(t *testing.T) {
	v := Vector{1, -2, 3}
	w := Vector{4, 5, -6}
	if got := v.Dot(w); got != 1*4+-2*5+3*-6 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Sum(); got != 2 {
		t.Fatalf("Sum = %v", got)
	}
	if got := v.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := v.NormInf(); got != 3 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestVectorScaleAddScaled(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Scale(2)
	if v[2] != 6 {
		t.Fatalf("Scale: %v", v)
	}
	v.AddScaled(0.5, Vector{2, 2, 2})
	want := Vector{3, 5, 7}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("AddScaled: %v", v)
		}
	}
}

func TestVectorNormalize1(t *testing.T) {
	v := Vector{1, 3}
	s := v.Normalize1()
	if s != 4 {
		t.Fatalf("returned sum %v", s)
	}
	if !almostEq(v.Sum(), 1, 1e-15) {
		t.Fatalf("not normalised: %v", v)
	}
	// Zero vector untouched.
	z := Vector{0, 0}
	z.Normalize1()
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero vector modified: %v", z)
	}
}

// maxDiff returns max_i |v_i − w_i|.
func maxDiff(v, w Vector) float64 {
	var m float64
	for i := range v {
		m = max(m, math.Abs(v[i]-w[i]))
	}
	return m
}

func TestVectorAllFinite(t *testing.T) {
	if !(Vector{1, 2}).AllFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).AllFinite() {
		t.Fatal("NaN not detected")
	}
	if (Vector{math.Inf(1)}).AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(Vector{1}).Dot(Vector{1, 2})
}

// Property: normalising any vector with positive finite sum yields sum 1.
func TestQuickNormalize(t *testing.T) {
	f := func(raw []float64) bool {
		v := make(Vector, len(raw))
		var sum float64
		for i, x := range raw {
			x = math.Abs(math.Mod(x, 1e6)) // keep magnitudes sane
			if math.IsNaN(x) {
				x = 0
			}
			v[i] = x
			sum += x
		}
		if sum <= 0 {
			return true
		}
		v.Normalize1()
		return almostEq(v.Sum(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Norm1 returns the l1 norm Σ|v_i|.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}
