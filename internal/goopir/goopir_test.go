package goopir

import (
	"strings"
	"testing"

	"xsearch/internal/dataset"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, nil, 1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := New(2, []string{}, 1); err == nil {
		t.Error("empty dictionary accepted")
	}
}

func TestObfuscateStructure(t *testing.T) {
	ob, err := New(3, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	oq := ob.Obfuscate("red sports car")
	if len(oq.Subqueries) != 4 {
		t.Fatalf("subqueries = %d", len(oq.Subqueries))
	}
	if oq.Original() != "red sports car" {
		t.Errorf("original = %q", oq.Original())
	}
	dict := map[string]struct{}{}
	for _, w := range dataset.DictionaryWords {
		dict[w] = struct{}{}
	}
	for _, f := range oq.Fakes() {
		words := strings.Fields(f)
		// GooPIR matches the original's word count.
		if len(words) != 3 {
			t.Errorf("fake %q has %d words, want 3", f, len(words))
		}
		for _, w := range words {
			if _, ok := dict[w]; !ok {
				t.Errorf("fake word %q not from dictionary", w)
			}
		}
	}
}

func TestObfuscateK0(t *testing.T) {
	ob, err := New(0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	oq := ob.Obfuscate("plain query")
	if len(oq.Subqueries) != 1 || oq.Original() != "plain query" {
		t.Errorf("oq = %+v", oq)
	}
}

func TestDeterministic(t *testing.T) {
	ob1, err := New(2, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	ob2, err := New(2, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a := ob1.Obfuscate("some query here")
		b := ob2.Obfuscate("some query here")
		if a.Query() != b.Query() {
			t.Fatal("not deterministic")
		}
	}
}
