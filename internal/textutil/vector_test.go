package textutil

import (
	"math"
	"reflect"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewVector(t *testing.T) {
	v := NewVector("red car red truck")
	want := Vector{"red": 2, "car": 1, "truck": 1}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("NewVector = %v, want %v", v, want)
	}
}

func TestDotSymmetry(t *testing.T) {
	a := NewVector("private web search enclave")
	b := NewVector("web search engine ranking")
	if !almostEqual(a.Dot(b), b.Dot(a)) {
		t.Errorf("Dot not symmetric: %f vs %f", a.Dot(b), b.Dot(a))
	}
}
