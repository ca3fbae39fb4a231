package textutil

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xsearch/internal/raceflag"
)

// porterPairs are reference pairs from Porter's published vocabulary
// examples.
var porterPairs = []struct{ in, want string }{
	{"caresses", "caress"},
	{"ponies", "poni"},
	{"ties", "ti"},
	{"caress", "caress"},
	{"cats", "cat"},
	{"feed", "feed"},
	{"agreed", "agre"},
	{"plastered", "plaster"},
	{"bled", "bled"},
	{"motoring", "motor"},
	{"sing", "sing"},
	{"conflated", "conflat"},
	{"troubled", "troubl"},
	{"sized", "size"},
	{"hopping", "hop"},
	{"tanned", "tan"},
	{"falling", "fall"},
	{"hissing", "hiss"},
	{"fizzed", "fizz"},
	{"failing", "fail"},
	{"filing", "file"},
	{"happy", "happi"},
	{"sky", "sky"},
	{"relational", "relat"},
	{"conditional", "condit"},
	{"rational", "ration"},
	{"valenci", "valenc"},
	{"hesitanci", "hesit"},
	{"digitizer", "digit"},
	{"conformabli", "conform"},
	{"radicalli", "radic"},
	{"differentli", "differ"},
	{"vileli", "vile"},
	{"analogousli", "analog"},
	{"vietnamization", "vietnam"},
	{"predication", "predic"},
	{"operator", "oper"},
	{"feudalism", "feudal"},
	{"decisiveness", "decis"},
	{"hopefulness", "hope"},
	{"callousness", "callous"},
	{"formaliti", "formal"},
	{"sensitiviti", "sensit"},
	{"sensibiliti", "sensibl"},
	{"triplicate", "triplic"},
	{"formative", "form"},
	{"formalize", "formal"},
	{"electriciti", "electr"},
	{"electrical", "electr"},
	{"hopeful", "hope"},
	{"goodness", "good"},
	{"revival", "reviv"},
	{"allowance", "allow"},
	{"inference", "infer"},
	{"airliner", "airlin"},
	{"gyroscopic", "gyroscop"},
	{"adjustable", "adjust"},
	{"defensible", "defens"},
	{"irritant", "irrit"},
	{"replacement", "replac"},
	{"adjustment", "adjust"},
	{"dependent", "depend"},
	{"adoption", "adopt"},
	{"homologou", "homolog"},
	{"communism", "commun"},
	{"activate", "activ"},
	{"angulariti", "angular"},
	{"homologous", "homolog"},
	{"effective", "effect"},
	{"bowdlerize", "bowdler"},
	{"probate", "probat"},
	{"rate", "rate"},
	{"cease", "ceas"},
	{"controll", "control"},
	{"roll", "roll"},
	// Short words are unchanged.
	{"at", "at"},
	{"by", "by"},
	{"", ""},
}

func TestStem(t *testing.T) {
	for _, tt := range porterPairs {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStemNonASCIIUnchanged(t *testing.T) {
	for _, w := range []string{"café", "日本語", "naïve"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Stemming must never grow a word by more than one character (only the
// 'e'-restoration rules append) and must never panic on arbitrary input.
func TestStemBounded(t *testing.T) {
	f := func(s string) bool {
		out := Stem(s)
		return len(out) <= len(s)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasure(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"tr", 0}, {"ee", 0}, {"tree", 0}, {"y", 0}, {"by", 0},
		{"trouble", 1}, {"oats", 1}, {"trees", 1}, {"ivy", 1},
		{"troubles", 2}, {"private", 2}, {"oaten", 2}, {"orrery", 2},
	}
	for _, tt := range tests {
		if got := measure([]byte(tt.in)); got != tt.want {
			t.Errorf("measure(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "privacy", "searching", "obfuscation",
		"enclaves", "anonymity", "queries", "identification"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

// TestStemMatchesFrozenSteps: the linear stemmer gives the stem the Porter
// steps it replaced gave, on Porter's vocabulary and on short words built
// to walk the y rule (package textutil_test adds the corpora).
func TestStemMatchesFrozenSteps(t *testing.T) {
	words := []string{"privacy", "searching", "obfuscation", "enclaves", "anonymity",
		"queries", "identification", "yyy", "yyyational", "sayying", "byyyes",
		"ayyyly", "toying", "yelling", "syzygy", "yttrium", "boyhood", "employed"}
	for _, p := range porterPairs {
		words = append(words, p.in, p.want)
	}
	for n := 1; n <= 12; n++ {
		for _, unit := range []string{"y", "ay", "ya", "by", "yb"} {
			run := strings.Repeat(unit, n)
			for _, w := range []string{run, run + "ational", run + "ing", run + "ed", "b" + run + "e", run + "s"} {
				words = append(words, w)
			}
		}
	}
	for _, w := range words {
		if got, want := Stem(w), frozenStem(w); got != want {
			t.Errorf("Stem(%q) = %q, frozen steps %q", w, got, want)
		}
	}
}

// TestStemIsLinear: a y's class depends on the letter before it, so a run of
// y's is where a stemmer that reclassifies backwards turns quadratic. Engine
// bodies are capped only at megabytes, so one such token in a snippet would
// pin an enclave thread for every pair it is scored in.
func TestStemIsLinear(t *testing.T) {
	limit := time.Second
	if raceflag.Enabled {
		limit *= 10 // the detector's instrumentation, not the algorithm
	}
	for _, w := range []string{
		strings.Repeat("y", 1<<20) + "ational",
		strings.Repeat("ay", 1<<19),
		strings.Repeat("by", 1<<19) + "ing",
	} {
		start := time.Now()
		got := Stem(w)
		if d := time.Since(start); d > limit {
			t.Errorf("Stem of a %d-byte %q… token took %v, limit %v", len(w), w[:4], d, limit)
		}
		if len(got) > len(w) {
			t.Errorf("Stem lengthened a %d-byte token to %d bytes", len(w), len(got))
		}
	}
}
