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

func TestVectorAdd(t *testing.T) {
	v := Vector{}
	v.Add("red car", 1)
	v.Add("red boat", 2)
	if !almostEqual(v["red"], 3) || !almostEqual(v["car"], 1) || !almostEqual(v["boat"], 2) {
		t.Errorf("Add accumulated wrong weights: %v", v)
	}
}

func TestDotSymmetry(t *testing.T) {
	a := NewVector("private web search enclave")
	b := NewVector("web search engine ranking")
	if !almostEqual(a.Dot(b), b.Dot(a)) {
		t.Errorf("Dot not symmetric: %f vs %f", a.Dot(b), b.Dot(a))
	}
}

func TestClone(t *testing.T) {
	a := NewVector("red car")
	c := a.Clone()
	c["red"] = 99
	if a["red"] == 99 {
		t.Error("Clone did not deep-copy")
	}
}
