// Package linalg provides the small dense and sparse linear-algebra kernel
// used by the probabilistic model-checking engine: vectors, dense matrices,
// compressed-sparse-row matrices, direct elimination and the Gauss–Seidel
// iterative solver.
//
// Everything is float64 and allocation-conscious: the model checker calls
// these kernels thousands of times per property, so the hot paths accept
// destination slices and avoid per-call allocation.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operand shapes do not agree.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every component to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product v·w.
// It panics if the lengths differ; dimension errors here are programming
// errors, not data errors.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Sum returns the sum of all components.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// NormInf returns the l∞ norm max|v_i|.
func (v Vector) NormInf() float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Scale multiplies every component by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddScaled performs v += a*w in place.
func (v Vector) AddScaled(a float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Normalize1 scales v so that its components sum to one. It returns the
// original sum; if the sum is zero or not finite, v is left untouched.
func (v Vector) Normalize1() float64 {
	s := v.Sum()
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return s
	}
	inv := 1 / s
	for i := range v {
		v[i] *= inv
	}
	return s
}

// AllFinite reports whether every component is a finite number.
func (v Vector) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
