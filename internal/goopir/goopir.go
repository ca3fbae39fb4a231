// Package goopir implements the GooPIR baseline (Domingo-Ferrer et al.):
// client-side obfuscation that ORs the real query with k fake queries built
// from randomly selected dictionary keywords; the client filters the merged
// results with core.FilterResults, as X-Search's enclave does. Its weakness
// — dictionary words are distinguishable from organic query terms —
// motivates X-Search's use of real past queries.
package goopir

import (
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"

	"xsearch/internal/core"
	"xsearch/internal/dataset"
)

// Obfuscator builds GooPIR-style obfuscated queries.
type Obfuscator struct {
	k          int
	dictionary []string

	mu  sync.Mutex
	rng *mrand.Rand
}

// New creates an obfuscator with k dictionary fakes per query. A nil
// dictionary uses the built-in one.
func New(k int, dictionary []string, seed uint64) (*Obfuscator, error) {
	if k < 0 {
		return nil, fmt.Errorf("goopir: negative k")
	}
	if dictionary == nil {
		dictionary = dataset.DictionaryWords
	}
	if len(dictionary) == 0 {
		return nil, fmt.Errorf("goopir: empty dictionary")
	}
	if seed == 0 {
		seed = 1
	}
	return &Obfuscator{
		k:          k,
		dictionary: dictionary,
		rng:        mrand.New(mrand.NewPCG(seed, seed^0x3c6ef372fe94f82b)),
	}, nil
}

// Obfuscate hides query among k fakes with the same word count, each fake
// assembled from random dictionary keywords (GooPIR's scheme).
func (o *Obfuscator) Obfuscate(query string) core.ObfuscatedQuery {
	o.mu.Lock()
	defer o.mu.Unlock()
	nWords := len(strings.Fields(query))
	if nWords < 1 {
		nWords = 1
	}
	fakes := make([]string, o.k)
	for i := range fakes {
		words := make([]string, nWords)
		for j := range words {
			words[j] = o.dictionary[o.rng.IntN(len(o.dictionary))]
		}
		fakes[i] = strings.Join(words, " ")
	}
	return core.Place(o.rng.IntN, query, fakes)
}
