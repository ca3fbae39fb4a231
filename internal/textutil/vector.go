package textutil

import (
	"math"
	"sort"
	"strings"
)

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

// Add accumulates the terms of s into v, weighting each occurrence by w.
// It is used to build user profiles incrementally from query histories.
func (v Vector) Add(s string, w float64) {
	for _, t := range Terms(s) {
		v[t] += w
	}
}

// AddVector accumulates o into v scaled by w.
func (v Vector) AddVector(o Vector, w float64) {
	for t, f := range o {
		v[t] += f * w
	}
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

// Cosine returns the cosine similarity between v and o in [0, 1] for
// non-negative vectors; zero if either vector is empty.
func (v Vector) Cosine(o Vector) float64 {
	nv, no := v.Norm(), o.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(o) / (nv * no)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for t, f := range v {
		c[t] = f
	}
	return c
}

// TopTerms returns the n highest-weight terms of v, ties broken
// lexicographically so output is deterministic.
func (v Vector) TopTerms(n int) []string {
	type tw struct {
		term string
		w    float64
	}
	all := make([]tw, 0, len(v))
	for t, f := range v {
		all = append(all, tw{t, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].term < all[j].term
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].term
	}
	return out
}

// CosineStrings is a convenience wrapper computing the cosine similarity of
// the term vectors of two raw strings.
func CosineStrings(a, b string) float64 {
	return NewVector(a).Cosine(NewVector(b))
}

// Jaccard returns the Jaccard index of the unique term sets of a and b.
func Jaccard(a, b string) float64 {
	ta, tb := newTermSet(Terms(a)), newTermSet(Terms(b))
	union := len(ta) + len(tb)
	if union == 0 {
		return 0
	}
	inter := ta.Common(tb)
	return float64(inter) / float64(union-inter)
}

// NormalizeQuery canonicalizes a query string: tokenize, lowercase and
// re-join with single spaces. Used when queries are compared or used as map
// keys (e.g. the curious engine's log).
func NormalizeQuery(q string) string {
	return strings.Join(Tokenize(q), " ")
}
