// Package textutil provides the text-processing primitives shared by the
// search engine, the SimAttack re-identification attack, the PEAS fake-query
// generator and the X-Search result filter: tokenization, stopword removal,
// Porter stemming, term vectors and similarity measures.
//
// # The normalisation kernel
//
// Every function that turns text into comparable terms goes through one
// loop, appendTerms: lower-case the text once (strings.ToLower returns its
// argument when nothing changes), slice maximal letter/digit runs out of the
// lowered string, drop one-byte tokens and stopwords, Porter-stem the rest
// (Stem returns its argument when nothing changes). A term is therefore a
// substring of the lowered text or a freshly stemmed string; no token is
// built rune by rune. Tokenize is the separate, unstemmed tokenizer that
// NormalizeQuery needs.
//
// # Termer: scope rule
//
// A Termer runs the kernel behind a token→stem memo, so a word that occurs
// in fifty result snippets is looked up in the stopword list and stemmed
// once. Its scope is ONE call that normalises many related texts — one
// searchengine.BuildIndex, one answer.Index.Insert, and (ROADMAP item 1b) one
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
// # What the wrappers cost
//
// Terms, UniqueTerms, CommonWords and Jaccard are stateless wrappers for a
// single text or pair: they run the kernel without a memo — no map is
// allocated for one short query — and pay one slice per text, one string per
// token whose stem differs from it, and a lowered copy only when the text
// has upper-case or non-ASCII letters. Their terms may alias the argument.
// UniqueTerms adds one index slice for its order-preserving de-duplication;
// CommonWords and Jaccard sort in place and intersect by merging.
package textutil

import (
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
func (a TermSet) Common(b TermSet) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
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
	start := -1
	for i := 0; i <= len(low); {
		inToken, size := false, 1
		if i < len(low) {
			if c := low[i]; c < utf8.RuneSelf {
				inToken = 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
			} else {
				var r rune
				r, size = utf8.DecodeRuneInString(low[i:])
				inToken = unicode.IsLetter(r) || unicode.IsDigit(r)
			}
		}
		switch {
		case inToken && start < 0:
			start = i
		case !inToken && start >= 0:
			if term := normalise(low[start:i], memo); term != "" {
				dst = append(dst, term)
			}
			start = -1
		}
		i += size
	}
	return dst
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
	return newTermSet(Terms(a)).Common(newTermSet(Terms(b)))
}
