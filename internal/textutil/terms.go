// Package textutil provides the text-processing primitives shared by the
// search engine, the SimAttack re-identification attack, the PEAS fake-query
// generator and the X-Search result filter: tokenization, stopword removal,
// Porter stemming, term vectors and term-overlap counts.
//
// # The normalisation kernel
//
// Every function that turns text into comparable terms goes through one
// loop, appendTerms: lower-case the text once (strings.ToLower returns its
// argument when nothing changes), slice maximal letter/digit runs out of the
// lowered string, drop one-byte tokens and stopwords, Porter-stem the rest
// (Stem returns its argument when nothing changes). A term is therefore a
// substring of the lowered text or a freshly stemmed string; no token is
// built rune by rune. Tokenize is the reference: the separate, unstemmed,
// rune-by-rune tokenizer the tests' reference pipelines are written with,
// kept for them alone (scripts/deadcode allows it). Stemming is the
// kernel's main cost: each Porter step is linear in the word, and steps 2-4
// compare it only with the suffixes that share its penultimate letter (at
// most five a step, of 46).
//
// # Termer: scope rule
//
// A Termer runs the kernel behind a token→stem memo, so a word that occurs
// in fifty result snippets is looked up in the stopword list and stemmed
// once. Its scope is ONE call that normalises many related texts — one
// searchengine.BuildIndex, one answer.Index.Insert, and (ROADMAP item 1) one
// core.FilterResults — and it is declared inside that call:
//
//   - not shared: it has no lock, and needs none while it stays local;
//   - not persistent: it is garbage with the call, so it is bounded by what
//     the call was handed (the proxy caps an engine body before any of it is
//     normalised) and never counts against the enclave's persistent heap;
//   - not process-wide, on purpose: a memo that outlived the request would
//     make one user's filter time depend on the words another user's results
//     contained — a timing channel between sessions the paper's proxy does
//     not have.
//
// Strings a Termer returns never alias the text it was given, so they may be
// kept (index keys) without pinning a whole snippet.
//
// # PairCounter: Algorithm 2's scratch
//
// A PairCounter counts the terms two texts share — CommonWords — in storage
// it keeps between calls: one byte arena that holds both texts' terms,
// lowered and stemmed in place (ASCII text is lowered a token at a time,
// other text through strings.ToLower, so the case mappings are the
// kernel's), and two span lists into it that are sorted, de-duplicated and
// merged where they lie. Its tokens come from the kernel's scanner
// (nextToken) and its stems from the one stemmer (appendStem's steps), so
// pair counting has one path: CommonWords is a zero-value counter. It
// follows the Termer's scope rule — declared in one core.FilterResults call,
// not shared, not kept — so no session's scoring time depends on another's
// text. Its arena is bounded by the largest pair of that call, a sub-query
// and one title or snippet, which the engine-body cap already bounds.
//
// # What the wrappers cost
//
// Terms and UniqueTerms are stateless wrappers for a single text: they run
// the kernel without a memo — no map is allocated for one short query — and
// pay one slice per text, one string per token whose stem differs from it,
// and a lowered copy only when the text has upper-case or non-ASCII letters.
// Their terms may alias the argument. UniqueTerms adds one index slice for
// its order-preserving de-duplication. CommonWords pays for one
// PairCounter's buffers (a few allocations, whatever the number of terms); a
// counter reused across pairs pays nothing once warm on ASCII text, and a
// lowered copy per non-ASCII text.
package textutil

import (
	"bytes"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TermSet is the set of normalised terms of one text: sorted and
// de-duplicated, so two sets intersect by a merge instead of a map.
type TermSet []string

// newTermSet sorts and de-duplicates terms in place.
func newTermSet(terms []string) TermSet {
	slices.Sort(terms)
	return slices.Compact(terms)
}

// Common returns the number of terms a and b share.
func (a TermSet) Common(b TermSet) int { return mergeCount(a, b, strings.Compare) }

// mergeCount counts the elements two sorted, de-duplicated lists share.
func mergeCount[T any](a, b []T, compare func(T, T) int) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Termer normalises many related texts through one token→stem memo. The
// zero value is ready to use. See the package comment for its scope rule:
// one call, not shared between goroutines, not kept.
type Termer struct {
	memo map[string]string // lowered token → stem, "" for a stopword
}

// AppendTerms appends the normalised terms of s — as Terms(s) — to dst.
func (t *Termer) AppendTerms(dst []string, s string) []string {
	if t.memo == nil {
		t.memo = make(map[string]string)
	}
	return appendTerms(dst, s, t.memo)
}

// TermSet returns the term set of s, built in dst's storage (which may be
// nil): a caller scoring one text after another passes the previous set
// back in. It is what Algorithm 2 needs to normalise each text once.
func (t *Termer) TermSet(dst TermSet, s string) TermSet {
	return newTermSet(t.AppendTerms(dst[:0], s))
}

// appendTerms is the kernel: every normalised term of s, in order and with
// duplicates, appended to dst. With a nil memo each token is normalised
// where it stands and a term may alias s; with a memo each distinct token is
// normalised once and the memoised term owns its bytes.
func appendTerms(dst []string, s string, memo map[string]string) []string {
	low := strings.ToLower(s)
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			return dst
		}
		if term := normalise(low[start:end], memo); term != "" {
			dst = append(dst, term)
		}
		i = end
	}
}

// nextToken returns the bounds of the first token of s at or after byte i:
// a maximal run of letters and digits. start == end when there is none. An
// ASCII letter is a letter in either case, so the scanner finds the same
// tokens in a text as in its lower-cased form (TestLowerKeepsTokenClass).
func nextToken(s string, i int) (start, end int) {
	start = -1
	for i < len(s) {
		inToken, size := false, 1
		if c := s[i]; c < utf8.RuneSelf {
			inToken = c|0x20-'a' < 26 || c-'0' < 10
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			inToken = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case inToken && start < 0:
			start = i
		case !inToken && start >= 0:
			return start, i
		}
		i += size
	}
	if start < 0 {
		return len(s), len(s)
	}
	return start, len(s)
}

// normalise maps one lowered token to its term, or to "" when the token is
// dropped (a single byte, or a stopword). Stem never returns "" for a token
// of two bytes or more, so "" is free to mean dropped in the memo.
func normalise(token string, memo map[string]string) string {
	if len(token) < 2 {
		return ""
	}
	term, seen := memo[token]
	if seen {
		return term
	}
	if !IsStopword(token) {
		term = Stem(token)
	}
	if memo != nil {
		if term == token {
			term = strings.Clone(token) // a memoised term owns its bytes
		}
		memo[token] = term
	}
	return term
}

// Terms tokenizes s, removes stopwords and single-character tokens, and
// Porter-stems the remainder. This is the canonical normalization pipeline
// used everywhere a query or document is turned into comparable terms.
func Terms(s string) []string {
	return appendTerms(make([]string, 0, 8), s, nil)
}

// UniqueTerms returns Terms(s) with duplicates removed, preserving first
// occurrence order.
func UniqueTerms(s string) []string {
	terms := Terms(s)
	if len(terms) < 2 {
		return terms
	}
	// Sort positions by term, stably: within a run of equal terms the first
	// occurrence leads, and every later one is blanked ("" is never a term)
	// and squeezed out. O(n log n) comparisons whatever the text — a query
	// is client input.
	order := make([]int, len(terms))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(terms[a], terms[b]) })
	first := terms[order[0]]
	for _, i := range order[1:] {
		if terms[i] == first {
			terms[i] = ""
		} else {
			first = terms[i]
		}
	}
	return slices.DeleteFunc(terms, func(t string) bool { return t == "" })
}

// CommonWords reports the number of distinct normalized terms shared by a
// and b. It implements the paper's nbCommonWords(q, e) used by the filtering
// step (Algorithm 2).
func CommonWords(a, b string) int {
	var c PairCounter
	return c.Common(a, b)
}

// PairCounter counts the terms two texts share — CommonWords — in storage
// it reuses from one call to the next: the zero value is ready to use, and
// once its buffers have grown to the largest pair it was handed, counting
// ASCII text allocates nothing. It follows the Termer's scope rule (the
// package comment): one call, not shared between goroutines, not kept.
type PairCounter struct {
	arena []byte // both texts' terms, lowered and stemmed
	a, b  []span // the terms of each text, sorted and de-duplicated
}

// span is one term: arena[lo:hi].
type span struct{ lo, hi int }

// Common returns CommonWords(a, b).
func (c *PairCounter) Common(a, b string) int {
	c.arena = c.arena[:0]
	c.a = c.termSet(c.a[:0], a)
	c.b = c.termSet(c.b[:0], b)
	return mergeCount(c.a, c.b, c.compare)
}

// termSet appends the term set of s to dst, each term lowered and stemmed
// into the arena: the kernel's normalisation, with the term written into
// the counter's storage instead of a string of its own. ASCII text is
// lowered a token at a time; other text goes through strings.ToLower, whose
// case mappings the kernel follows exactly.
func (c *PairCounter) termSet(dst []span, s string) []span {
	low := s
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			low = strings.ToLower(s)
			break
		}
	}
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			break
		}
		i = end
		lo := len(c.arena)
		for _, ch := range []byte(low[start:end]) {
			if 'A' <= ch && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			c.arena = append(c.arena, ch)
		}
		token := c.arena[lo:]
		if _, stop := stopwords[string(token)]; stop || len(token) < 2 {
			c.arena = c.arena[:lo]
			continue
		}
		c.arena = stemTail(c.arena, lo)
		dst = append(dst, span{lo, len(c.arena)})
	}
	slices.SortFunc(dst, c.compare)
	return slices.CompactFunc(dst, func(x, y span) bool { return c.compare(x, y) == 0 })
}

func (c *PairCounter) compare(x, y span) int {
	return bytes.Compare(c.arena[x.lo:x.hi], c.arena[y.lo:y.hi])
}
