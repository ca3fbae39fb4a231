package textutil

import (
	"strings"
	"unicode"
)

// Tokenize lowercases s and splits it into maximal runs of letters and
// digits. Punctuation, operators and whitespace are separators. The result
// preserves token order and duplicates.
func Tokenize(s string) []string {
	tokens := make([]string, 0, 8)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}
