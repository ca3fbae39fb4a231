package textutil

// Stem applies the Porter stemming algorithm (Porter, 1980) to a lowercase
// ASCII word. Words shorter than three characters are returned unchanged,
// matching the reference implementation. Non-ASCII input is returned as-is.
// A word the algorithm leaves alone is returned as the argument itself, so
// only a changed stem costs an allocation.
func Stem(word string) string {
	// The steps never lengthen a word: one of up to 64 bytes is stemmed
	// without leaving the stack.
	var buf [64]byte
	w := appendStem(buf[:0], word)
	if string(w) == word {
		return word
	}
	return string(w)
}

// appendStem appends the Porter stem of word to dst. It is the stemmer:
// Stem and the pair counter both call it.
func appendStem(dst []byte, word string) []byte {
	return stemTail(append(dst, word...), len(dst))
}

// stemTail stems w[from:] in place and returns w with the stem at from.
// Every step runs in time linear in the word, whatever its letters.
func stemTail(w []byte, from int) []byte {
	word := w[from:]
	if len(word) < 3 {
		return w
	}
	for _, c := range word {
		if c >= 0x80 {
			return w
		}
	}
	word = step1a(word)
	word = step1b(word)
	word = step1c(word)
	word = replaceFirst(word, &step2Rules)
	word = replaceFirst(word, &step3Rules)
	word = step4(word)
	word = step5a(word)
	word = step5b(word)
	return append(w[:from], word...)
}

// consonant reports whether c is a consonant in Porter's sense, given
// whether the letter before it is one: a letter other than a, e, i, o, u,
// and other than a y that follows a consonant. A word's first letter has
// prevCons false, so a leading y is a consonant.
func consonant(c byte, prevCons bool) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		return !prevCons
	}
	return true
}

// isConsonant classifies w[i]. A y depends on the letter before it, so the
// run of y's ending at i is classified forward from the letter before the
// run: the cost is the length of the run, never a recursion over it.
func isConsonant(w []byte, i int) bool {
	j := i
	for j > 0 && w[j] == 'y' {
		j--
	}
	cons := false
	for ; j <= i; j++ {
		cons = consonant(w[j], cons)
	}
	return cons
}

// measure computes m, the number of VC (vowel-consonant) sequences in w
// viewed as [C](VC)^m[V]: the number of consonants that follow a vowel,
// counted in one forward pass.
func measure(w []byte) int {
	m, prev := 0, false
	for i, c := range w {
		cons := consonant(c, prev)
		if cons && i > 0 && !prev {
			m++
		}
		prev = cons
	}
	return m
}

func hasVowel(w []byte) bool {
	prev := false
	for _, c := range w {
		if prev = consonant(c, prev); !prev {
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

// rule replaces a step 2 or step 3 suffix.
type rule struct{ from, to string }

// The suffixes of steps 2-4 are filed by their penultimate letter, in
// Porter's order within each bucket, and a step scans only the bucket of
// the word's penultimate letter (Porter's own code switches on it). That is
// exact: every suffix here is at least two bytes long, so one that ends the
// word has the word's penultimate letter as its own, and the first match in
// the bucket is the first match in Porter's list.
var step2Rules = [256][]rule{
	'a': {{"ational", "ate"}, {"tional", "tion"}},
	'c': {{"enci", "ence"}, {"anci", "ance"}}, 'e': {{"izer", "ize"}},
	'l': {{"abli", "able"}, {"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"}},
	'o': {{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"}},
	's': {{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"}, {"ousness", "ous"}},
	't': {{"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"}},
}

var step3Rules = [256][]rule{
	'a': {{"ical", "ic"}}, 's': {{"ness", ""}}, 't': {{"icate", "ic"}, {"iciti", "ic"}},
	'u': {{"ful", ""}}, 'v': {{"ative", ""}}, 'z': {{"alize", "al"}},
}

var step4Suffixes = [256][]string{
	'a': {"al"}, 'c': {"ance", "ence"}, 'e': {"er"}, 'i': {"ic"},
	'l': {"able", "ible"}, 'n': {"ant", "ement", "ment", "ent"},
	'o': {"ion", "ou"}, 's': {"ism"}, 't': {"ate", "iti"},
	'u': {"ous"}, 'v': {"ive"}, 'z': {"ize"},
}

// replaceFirst is steps 2 and 3: it replaces the first suffix of w's bucket
// in rules that ends w, when the stem before it has measure > 0.
func replaceFirst(w []byte, rules *[256][]rule) []byte {
	if len(w) < 2 {
		return w
	}
	for _, r := range rules[w[len(w)-2]] {
		if hasSuffix(w, r.from) {
			if stem := w[:len(w)-len(r.from)]; measure(stem) > 0 {
				return append(stem, r.to...)
			}
			return w
		}
	}
	return w
}

func step4(w []byte) []byte {
	if len(w) < 2 {
		return w
	}
	for _, s := range step4Suffixes[w[len(w)-2]] {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		// "ion" only strips when the stem ends in s or t.
		if s == "ion" && !hasSuffix(stem, "s") && !hasSuffix(stem, "t") {
			return w
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
