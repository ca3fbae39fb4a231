package textutil

// The Porter steps as they stood before stemming was made linear, frozen
// here so the production stemmer has something independent to agree with:
// refStem, and through it the differential fuzz target, runs on these, and
// TestStemMatchesFrozenSteps / TestStemMatchesFrozenOnCorpus compare the two
// on every word the repository's corpora and Porter's vocabulary hold. Do
// not edit them; they are quadratic on runs of y, so feed them short words.

// FrozenStem is frozenStem, for the corpus check in package textutil_test.
var FrozenStem = frozenStem

func frozenStem(word string) string {
	if len(word) < 3 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			return word
		}
	}
	w := []byte(word)
	w = frozenStep1a(w)
	w = frozenStep1b(w)
	w = frozenStep1c(w)
	w = frozenStep2(w)
	w = frozenStep3(w)
	w = frozenStep4(w)
	w = frozenStep5a(w)
	w = frozenStep5b(w)
	return string(w)
}

// frozenIsConsonant reports whether w[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func frozenIsConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !frozenIsConsonant(w, i-1)
	}
	return true
}

// frozenMeasure computes m, the number of VC (vowel-consonant) sequences in w
// viewed as [C](VC)^m[V].
func frozenMeasure(w []byte) int {
	n, i := 0, 0
	// Skip initial consonants.
	for i < len(w) && frozenIsConsonant(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !frozenIsConsonant(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants: one full VC sequence observed.
		for i < len(w) && frozenIsConsonant(w, i) {
			i++
		}
		n++
	}
}

func frozenHasVowel(w []byte) bool {
	for i := range w {
		if !frozenIsConsonant(w, i) {
			return true
		}
	}
	return false
}

// frozenEndsDoubleConsonant reports whether w ends with two identical consonants.
func frozenEndsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && frozenIsConsonant(w, n-1)
}

// frozenEndsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y. Used to decide whether to restore a final 'e'.
func frozenEndsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !frozenIsConsonant(w, n-3) || frozenIsConsonant(w, n-2) || !frozenIsConsonant(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func frozenHasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// frozenReplaceSuffix replaces suffix s with r when the stem before s has
// frozenMeasure > m. Returns the new word and whether a replacement happened
// (i.e. the suffix matched, regardless of the frozenMeasure condition).
func frozenReplaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !frozenHasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if frozenMeasure(stem) > m {
		return append(stem, r...), true
	}
	return w, true
}

func frozenStep1a(w []byte) []byte {
	switch {
	case frozenHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case frozenHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case frozenHasSuffix(w, "ss"):
		return w
	case frozenHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func frozenStep1b(w []byte) []byte {
	if frozenHasSuffix(w, "eed") {
		if frozenMeasure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	cleanup := false
	switch {
	case frozenHasSuffix(w, "ed") && frozenHasVowel(w[:len(w)-2]):
		w = w[:len(w)-2]
		cleanup = true
	case frozenHasSuffix(w, "ing") && frozenHasVowel(w[:len(w)-3]):
		w = w[:len(w)-3]
		cleanup = true
	}
	if !cleanup {
		return w
	}
	switch {
	case frozenHasSuffix(w, "at"), frozenHasSuffix(w, "bl"), frozenHasSuffix(w, "iz"):
		return append(w, 'e')
	case frozenEndsDoubleConsonant(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
	case frozenMeasure(w) == 1 && frozenEndsCVC(w):
		return append(w, 'e')
	}
	return w
}

func frozenStep1c(w []byte) []byte {
	if frozenHasSuffix(w, "y") && frozenHasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var frozenStep2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"},
	{"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
	{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
	{"iviti", "ive"}, {"biliti", "ble"},
}

func frozenStep2(w []byte) []byte {
	for _, r := range frozenStep2Rules {
		if frozenHasSuffix(w, r.from) {
			w, _ = frozenReplaceSuffix(w, r.from, r.to, 0)
			return w
		}
	}
	return w
}

var frozenStep3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
	{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func frozenStep3(w []byte) []byte {
	for _, r := range frozenStep3Rules {
		if frozenHasSuffix(w, r.from) {
			w, _ = frozenReplaceSuffix(w, r.from, r.to, 0)
			return w
		}
	}
	return w
}

var frozenStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func frozenStep4(w []byte) []byte {
	for _, s := range frozenStep4Suffixes {
		if !frozenHasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" {
			// "ion" only strips when the stem ends in s or t.
			if len(stem) == 0 {
				return w
			}
			last := stem[len(stem)-1]
			if last != 's' && last != 't' {
				return w
			}
		}
		if frozenMeasure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func frozenStep5a(w []byte) []byte {
	if !frozenHasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := frozenMeasure(stem)
	if m > 1 || (m == 1 && !frozenEndsCVC(stem)) {
		return stem
	}
	return w
}

func frozenStep5b(w []byte) []byte {
	if frozenMeasure(w) > 1 && frozenEndsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
