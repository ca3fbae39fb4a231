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

// TestStepRulesKeyedByPenultimateLetter: a step scans only the bucket of the
// word's penultimate letter, so a rule filed under another letter would
// never match. Every bucket holds suffixes with its letter second from the
// end, and the buckets hold exactly the frozen steps' rules, each bucket in
// the frozen list's order.
func TestStepRulesKeyedByPenultimateLetter(t *testing.T) {
	step2 := make([]rule, len(frozenStep2Rules))
	for i, r := range frozenStep2Rules {
		step2[i] = rule(r)
	}
	step3 := make([]rule, len(frozenStep3Rules))
	for i, r := range frozenStep3Rules {
		step3[i] = rule(r)
	}
	from := func(r rule) string { return r.from }
	checkBuckets(t, "step 2", &step2Rules, step2, from)
	checkBuckets(t, "step 3", &step3Rules, step3, from)
	checkBuckets(t, "step 4", &step4Suffixes, frozenStep4Suffixes, func(s string) string { return s })
}

func checkBuckets[T comparable](t *testing.T, step string, buckets *[256][]T, frozen []T, suffix func(T) string) {
	t.Helper()
	pos := map[T]int{}
	for i, r := range frozen {
		pos[r] = i
	}
	seen := map[T]bool{}
	for c, bucket := range buckets {
		last := -1
		for _, r := range bucket {
			s := suffix(r)
			if len(s) < 2 || s[len(s)-2] != byte(c) {
				t.Errorf("%s: %q is filed under %q, not its penultimate letter", step, s, byte(c))
			}
			i, ok := pos[r]
			switch {
			case !ok:
				t.Errorf("%s: %v is not one of the frozen rules", step, r)
			case seen[r]:
				t.Errorf("%s: %v is filed twice", step, r)
			case i < last:
				t.Errorf("%s: %v comes before a rule it follows in the frozen list", step, r)
			}
			seen[r], last = true, i
		}
	}
	if len(seen) != len(frozen) {
		t.Errorf("%s: the buckets hold %d of the %d frozen rules", step, len(seen), len(frozen))
	}
}

// ruleStems are stems of measure 0, 1 and 2 (by index), each ending in s,
// in t and in another letter, so every suffix is tried with and without
// the measure its rule needs and "ion" with and without its s or t.
var ruleStems = [3][]string{
	{"", "ps", "st", "tr"},
	{"ros", "oat", "hop"},
	{"adopts", "privat", "conform"},
}

// TestStemMatchesFrozenOnEveryRule: every suffix of steps 2-4, on stems of
// each measure, alone and pluralised, stems as the frozen steps stem it.
func TestStemMatchesFrozenOnEveryRule(t *testing.T) {
	var suffixes []string
	for _, r := range frozenStep2Rules {
		suffixes = append(suffixes, r.from)
	}
	for _, r := range frozenStep3Rules {
		suffixes = append(suffixes, r.from)
	}
	suffixes = append(suffixes, frozenStep4Suffixes...)
	for m, stems := range ruleStems {
		for _, stem := range stems {
			if got := measure([]byte(stem)); got != m {
				t.Fatalf("measure(%q) = %d, want %d", stem, got, m)
			}
			for _, s := range suffixes {
				for _, w := range []string{stem + s, stem + s + "s"} {
					if got, want := Stem(w), frozenStem(w); got != want {
						t.Errorf("Stem(%q) = %q, frozen steps %q", w, got, want)
					}
				}
			}
		}
	}
}

// bucketTexts returns one text per non-empty bucket of steps 2-4: each of
// the bucket's suffixes on each measure-2 stem of ruleStems.
func bucketTexts() []string {
	var texts []string
	add := func(suffixes []string) {
		var words []string
		for _, stem := range ruleStems[2] {
			for _, s := range suffixes {
				words = append(words, stem+s)
			}
		}
		texts = append(texts, strings.Join(words, " "))
	}
	for _, table := range []*[256][]rule{&step2Rules, &step3Rules} {
		for _, bucket := range table {
			var suffixes []string
			for _, r := range bucket {
				suffixes = append(suffixes, r.from)
			}
			if len(suffixes) > 0 {
				add(suffixes)
			}
		}
	}
	for _, bucket := range step4Suffixes {
		if len(bucket) > 0 {
			add(bucket)
		}
	}
	return texts
}
