package textutil

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"empty", "", []string{}},
		{"simple", "hello world", []string{"hello", "world"}},
		{"mixed case", "Hello WORLD", []string{"hello", "world"}},
		{"punctuation", "what's up, doc?", []string{"what", "s", "up", "doc"}},
		{"digits", "top 10 cars 2006", []string{"top", "10", "cars", "2006"}},
		{"operators", "cats OR dogs", []string{"cats", "or", "dogs"}},
		{"url", "www.example.com/page", []string{"www", "example", "com", "page"}},
		{"unicode", "café ÉCOLE", []string{"café", "école"}},
		{"only punct", "!!! --- ???", []string{}},
		{"leading trailing space", "  spaced  out  ", []string{"spaced", "out"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.in)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestTokenizeLowercaseProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTerms(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"stopwords removed", "the best of the cars", []string{"best", "car"}},
		{"stemming", "running runner runs", []string{"run", "runner", "run"}},
		{"short tokens dropped", "a b c dog", []string{"dog"}},
		{"empty", "", []string{}},
		{"all stopwords", "the of and", []string{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Terms(tt.in)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Terms(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestUniqueTerms(t *testing.T) {
	got := UniqueTerms("dog dogs DOG cat")
	want := []string{"dog", "cat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UniqueTerms = %v, want %v", got, want)
	}
}

func TestCommonWords(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{"identical", "red sports car", "red sports car", 3},
		{"partial", "red sports car", "blue sports car", 2},
		{"stem match", "running shoes", "best runs shoe", 2},
		{"disjoint", "red car", "blue boat", 0},
		{"stopwords ignored", "the car", "a car", 1},
		{"empty a", "", "car", 0},
		{"empty b", "car", "", 0},
		{"duplicates counted once", "car car car", "car", 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CommonWords(tt.a, tt.b); got != tt.want {
				t.Errorf("CommonWords(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCommonWordsSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return CommonWords(a, b) == CommonWords(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"car", "privacy", "enclave"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}
