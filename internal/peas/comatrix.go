// Package peas implements the PEAS baseline (Petit et al., Trustcom'15)
// the paper compares against: two non-colluding proxies — a receiver that
// sees client identities but only ciphertext, and an issuer that decrypts
// queries but never learns identities — plus client-side obfuscation with
// fake queries generated from a term co-occurrence matrix built over past
// query logs. PEAS's trust assumption (the proxies do not collude) is the
// weak adversarial model X-Search's enclave replaces.
package peas

import (
	"fmt"
	mrand "math/rand/v2"
	"sort"
	"strings"

	"xsearch/internal/textutil"
)

// CoMatrix is a term co-occurrence graph over a query corpus: nodes are
// normalized terms, edge weights count how often two terms appeared in the
// same query. Fake queries are random walks over this graph, weighted by
// frequency — PEAS's generation scheme.
type CoMatrix struct {
	co    map[string]map[string]float64
	freq  map[string]float64
	terms []string // deterministic iteration order
	total float64
}

// BuildCoMatrix constructs the matrix from raw queries.
func BuildCoMatrix(queries []string) *CoMatrix {
	m := &CoMatrix{
		co:   make(map[string]map[string]float64),
		freq: make(map[string]float64),
	}
	for _, q := range queries {
		terms := textutil.UniqueTerms(q)
		for i, a := range terms {
			m.freq[a]++
			m.total++
			for j, b := range terms {
				if i == j {
					continue
				}
				edges, ok := m.co[a]
				if !ok {
					edges = make(map[string]float64)
					m.co[a] = edges
				}
				edges[b]++
			}
		}
	}
	m.terms = make([]string, 0, len(m.freq))
	for t := range m.freq {
		m.terms = append(m.terms, t)
	}
	sort.Strings(m.terms)
	return m
}

// NumTerms returns the vocabulary size of the matrix.
func (m *CoMatrix) NumTerms() int { return len(m.terms) }

// Fakes draws the k fakes of one PEAS k+1 set for query: k walks, each as
// long as query has words. Its one error is FakeQuery's, an empty matrix;
// k = 0 draws nothing, so a nil matrix serves it.
func (m *CoMatrix) Fakes(rng *mrand.Rand, query string, k int) ([]string, error) {
	fakes, words := make([]string, k), len(strings.Fields(query))
	for i := range fakes {
		fq, err := m.FakeQuery(rng, words)
		if err != nil {
			return nil, err
		}
		fakes[i] = fq
	}
	return fakes, nil
}

// FakeQuery generates one fake query of the given term count by a
// frequency-weighted start followed by a co-occurrence walk. Returns an
// error if the matrix is empty.
func (m *CoMatrix) FakeQuery(rng *mrand.Rand, length int) (string, error) {
	if len(m.terms) == 0 {
		return "", fmt.Errorf("peas: empty co-occurrence matrix")
	}
	if length < 1 {
		length = 1
	}
	cur := m.weightedStart(rng)
	words := []string{cur}
	for len(words) < length {
		next, ok := m.weightedNeighbor(rng, cur, words)
		if !ok {
			// Dead end: restart from a fresh weighted term.
			next = m.weightedStart(rng)
			if contains(words, next) {
				break
			}
		}
		words = append(words, next)
		cur = next
	}
	return strings.Join(words, " "), nil
}

// weightedStart draws a term proportionally to corpus frequency.
func (m *CoMatrix) weightedStart(rng *mrand.Rand) string {
	x := rng.Float64() * m.total
	var cum float64
	for _, t := range m.terms {
		cum += m.freq[t]
		if x < cum {
			return t
		}
	}
	return m.terms[len(m.terms)-1]
}

// weightedNeighbor draws a co-occurring term, excluding already-used words.
func (m *CoMatrix) weightedNeighbor(rng *mrand.Rand, term string, used []string) (string, bool) {
	edges, ok := m.co[term]
	if !ok || len(edges) == 0 {
		return "", false
	}
	// Deterministic order for reproducibility.
	keys := make([]string, 0, len(edges))
	var total float64
	for t := range edges {
		if contains(used, t) {
			continue
		}
		keys = append(keys, t)
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	for _, t := range keys {
		total += edges[t]
	}
	x := rng.Float64() * total
	var cum float64
	for _, t := range keys {
		cum += edges[t]
		if x < cum {
			return t, true
		}
	}
	return keys[len(keys)-1], true
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
