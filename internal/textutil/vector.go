package textutil

import "math"

// Vector is a sparse term-frequency vector over normalized terms. The zero
// value is an empty vector ready to use.
type Vector map[string]float64

// NewVector builds a term-frequency vector from the normalized terms of s.
func NewVector(s string) Vector {
	v := Vector{}
	for _, t := range Terms(s) {
		v[t]++
	}
	return v
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, f := range v {
		s += f * f
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of v and o.
func (v Vector) Dot(o Vector) float64 {
	// Iterate the smaller vector.
	if len(o) < len(v) {
		v, o = o, v
	}
	var s float64
	for t, f := range v {
		if g, ok := o[t]; ok {
			s += f * g
		}
	}
	return s
}
