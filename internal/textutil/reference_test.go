package textutil

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"xsearch/internal/raceflag"
)

// The pipeline the kernel replaced, kept as the reference the kernel is
// compared against: Tokenize → stopword → stem, a token built rune by rune,
// de-duplication and intersection through maps.

// refStem is the Porter steps frozen before stemming was made linear
// (porter_frozen_test.go), so the kernel's stems are checked against code
// it does not share.
func refStem(word string) string { return frozenStem(word) }

func refTerms(s string) []string {
	raw := Tokenize(s)
	terms := make([]string, 0, len(raw))
	for _, t := range raw {
		if len(t) < 2 || IsStopword(t) {
			continue
		}
		terms = append(terms, refStem(t))
	}
	return terms
}

func refUniqueTerms(s string) []string {
	terms := refTerms(s)
	seen := make(map[string]struct{}, len(terms))
	out := terms[:0]
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

func refCommonWords(a, b string) int {
	ta := refUniqueTerms(a)
	if len(ta) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(ta))
	for _, t := range ta {
		set[t] = struct{}{}
	}
	n := 0
	for _, t := range refUniqueTerms(b) {
		if _, ok := set[t]; ok {
			n++
		}
	}
	return n
}

// requireMatchesReference checks every kernel entry point against the
// reference on one pair of texts.
func requireMatchesReference(t *testing.T, a, b string) {
	t.Helper()
	want := refTerms(a)
	if got := Terms(a); got == nil || !slices.Equal(got, want) {
		t.Fatalf("Terms(%q) = %q, reference %q", a, got, want)
	}
	if got, want := UniqueTerms(a), refUniqueTerms(a); !slices.Equal(got, want) {
		t.Fatalf("UniqueTerms(%q) = %q, reference %q", a, got, want)
	}
	if got, want := CommonWords(a, b), refCommonWords(a, b); got != want {
		t.Fatalf("CommonWords(%q, %q) = %d, reference %d", a, b, got, want)
	}

	// One Termer over both texts, b first so a's tokens can hit the memo,
	// then a again so every token does.
	var tm Termer
	tm.AppendTerms(nil, b)
	for pass := 0; pass < 2; pass++ {
		if got := tm.AppendTerms(nil, a); !slices.Equal(got, want) {
			t.Fatalf("pass %d: Termer.AppendTerms(%q) = %q, reference %q", pass, a, got, want)
		}
	}
	wantSet := refUniqueTerms(a)
	slices.Sort(wantSet)
	set := tm.TermSet(nil, a)
	if !slices.Equal(set, wantSet) {
		t.Fatalf("Termer.TermSet(%q) = %q, reference %q", a, set, wantSet)
	}
	if got, want := set.Common(tm.TermSet(nil, b)), refCommonWords(a, b); got != want {
		t.Fatalf("TermSet.Common(%q, %q) = %d, reference %d", a, b, got, want)
	}

	// One PairCounter, reused: its arena and term buffers hold the previous
	// pair's terms when the next pair starts.
	var pc PairCounter
	common := refCommonWords(a, b)
	for _, p := range [][2]string{{a, b}, {b, a}, {a, b}} {
		if got := pc.Common(p[0], p[1]); got != common {
			t.Fatalf("PairCounter.Common(%q, %q) = %d, reference %d", p[0], p[1], got, common)
		}
	}
}

// FuzzTermsMatchReference feeds arbitrary bytes — result text is
// host-controlled — to the kernel and to the reference pipeline.
func FuzzTermsMatchReference(f *testing.F) {
	f.Add("chicken recipes for the oven", "Oven-baked CHICKEN recipe")
	f.Add("", "")
	f.Add("the and of", "a an the")
	f.Add("\xff\xfe broken \xc3", "ok\x00null \xe2\x82") // invalid UTF-8, truncated sequences
	f.Add("Kelvin K Kb", "kelvin k kb")                  // KELVIN SIGN lower-cases to ASCII k
	f.Add("İstanbul DİYARBAKIR İ", "istanbul i")         // İ lower-cases to ASCII i
	f.Add("cafés naïveTOKYO東京 running", "東京 cafés")
	f.Add("x y z é 東 ab", "é 東")                     // 1-byte and 1-rune tokens
	f.Add("top 10 cars 2006 7 42nd", "10 2006 42nd") // digits
	f.Add("١٢٣ ⅠⅡ ⒶⒷ", "١٢٣")                        // Nd digits; Nl and So runes with case mappings
	f.Add("� replacement ��x", "replacement")
	f.Add(strings.Repeat("bomb ", 300)+strings.Repeat("x", 200), "bombs")
	f.Add("relational conditional rational valenci digitizer conformabli", "generalizations oscillators")
	// Both overflow Stem's 64-byte stack buffer; the y run also walks the
	// y rule across its whole length (the frozen steps are quadratic on it,
	// so it stays short).
	f.Add(strings.Repeat("y", 200)+"ational "+strings.Repeat("ay", 40), "SAYYYING "+strings.Repeat("Y", 200)+"ate")
	f.Add("internationalizations"+strings.Repeat("ness", 12)+" Conditionally", "conditional "+strings.Repeat("Ab", 40)+"ing")
	// One seed per suffix bucket of Porter steps 2-4, each paired with
	// the next bucket's text.
	texts := bucketTexts()
	for i, text := range texts {
		f.Add(text, texts[(i+1)%len(texts)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		requireMatchesReference(t, a, b)
		requireMatchesReference(t, b, a)
	})
}

// TestLowerKeepsTokenClass is the fact the kernel's lower-once rests on:
// the reference classifies a rune and then lower-cases it, the kernel
// lower-cases the text and then classifies, so lower-casing must never
// move a rune between "token" and "separator".
func TestLowerKeepsTokenClass(t *testing.T) {
	inToken := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); inToken(l) != inToken(r) {
			t.Fatalf("%U is token=%v but lower-cases to %U, token=%v", r, inToken(r), l, inToken(l))
		}
	}
}

// TestStemReturnsArgumentWhenUnchanged pins the allocation contract the
// stateless wrappers rely on, and that the stack buffer is not a length cap.
func TestStemReturnsArgumentWhenUnchanged(t *testing.T) {
	long := strings.Repeat("zq", 100)
	for _, w := range []string{"chicken", "oven", "tokyo", long, long + "ing"} {
		if got, want := Stem(w), refStem(w); got != want {
			t.Errorf("Stem(%q) = %q, reference %q", w, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Stem("chicken") }); n != 0 {
		t.Errorf("Stem of an unchanged word allocates %v times", n)
	}
}

// TestPairCounterWarmAllocatesNothing is the gate on what Algorithm 2 pays
// per (sub-query x result) pair: once a counter's buffers have grown to a
// pair, counting ASCII text — upper-case, stopwords and changed stems
// included — allocates nothing.
func TestPairCounterWarmAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const (
		q    = "Cheap FLIGHTS to Tokyo hotels"
		text = "Compare cheap flights and the best hotel deals in Tokyo; booking relational databases, running shoes"
	)
	var pc PairCounter
	want := CommonWords(q, text)
	if got := testing.AllocsPerRun(200, func() {
		if pc.Common(q, text) != want || pc.Common(text, q) != want {
			t.Fatal("a reused counter disagrees with CommonWords")
		}
	}); got != 0 {
		t.Errorf("a warm PairCounter allocates %v times per two pairs", got)
	}
}

// TestUniqueTermsAllocBudget: the per-request wrapper (answer.Index.Query
// and the in-process engine call it on every query) must stay as cheap as
// the reference was — in particular no memo map for one short text.
func TestUniqueTermsAllocBudget(t *testing.T) {
	const q = "cheap flights tokyo"
	ref := testing.AllocsPerRun(200, func() { refUniqueTerms(q) })
	got := testing.AllocsPerRun(200, func() { UniqueTerms(q) })
	if got > ref {
		t.Errorf("UniqueTerms(%q) allocates %v times, the reference %v", q, got, ref)
	}
	t.Logf("UniqueTerms allocs: %v (reference %v)", got, ref)
}
