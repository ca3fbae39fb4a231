package textutil

// Stem applies the Porter stemming algorithm (Porter, 1980) to a lowercase
// ASCII word. Words shorter than three characters are returned unchanged,
// matching the reference implementation. Non-ASCII input is returned as-is.
// A word the algorithm leaves alone is returned as the argument itself, so
// only a changed stem costs an allocation.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			return word
		}
	}
	// The steps shorten the word or add one 'e': a word of up to 63 bytes
	// is stemmed without leaving the stack.
	var buf [64]byte
	w := append(buf[:0], word...)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if string(w) == word {
		return word
	}
	return string(w)
}

// isConsonant reports whether w[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	}
	return true
}

// measure computes m, the number of VC (vowel-consonant) sequences in w
// viewed as [C](VC)^m[V].
func measure(w []byte) int {
	n, i := 0, 0
	// Skip initial consonants.
	for i < len(w) && isConsonant(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !isConsonant(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants: one full VC sequence observed.
		for i < len(w) && isConsonant(w, i) {
			i++
		}
		n++
	}
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends with two identical consonants.
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y. Used to decide whether to restore a final 'e'.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isConsonant(w, n-3) || isConsonant(w, n-2) || !isConsonant(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r when the stem before s has
// measure > m. Returns the new word and whether a replacement happened
// (i.e. the suffix matched, regardless of the measure condition).
func replaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) > m {
		return append(stem, r...), true
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	cleanup := false
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		w = w[:len(w)-2]
		cleanup = true
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		w = w[:len(w)-3]
		cleanup = true
	}
	if !cleanup {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"},
	{"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
	{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
	{"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if hasSuffix(w, r.from) {
			w, _ = replaceSuffix(w, r.from, r.to, 0)
			return w
		}
	}
	return w
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
	{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if hasSuffix(w, r.from) {
			w, _ = replaceSuffix(w, r.from, r.to, 0)
			return w
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
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
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
