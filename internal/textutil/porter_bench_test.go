package textutil_test

import (
	"slices"
	"testing"

	"xsearch/internal/searchengine"
	"xsearch/internal/textutil"
)

// BenchmarkStem measures the stemmer per word, on eight long suffixed words
// and on what the result filter stems: every distinct token of the
// benchmark's corpus (40 documents per topic, seed 1) that is not a
// stopword or a single byte.
func BenchmarkStem(b *testing.B) {
	b.Run("words", func(b *testing.B) {
		benchStem(b, []string{"relational", "privacy", "searching", "obfuscation",
			"enclaves", "anonymity", "queries", "identification"})
	})
	b.Run("corpus", func(b *testing.B) {
		seen := map[string]bool{}
		var words []string
		for _, d := range searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 40, Seed: 1}) {
			for _, w := range textutil.Tokenize(d.Title + " " + d.Snippet) {
				if len(w) > 1 && !textutil.IsStopword(w) && !seen[w] {
					seen[w] = true
					words = append(words, w)
				}
			}
		}
		slices.Sort(words)
		benchStem(b, words)
	})
}

func benchStem(b *testing.B, words []string) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		textutil.Stem(words[i%len(words)])
	}
	b.ReportMetric(float64(len(words)), "words")
}
