// Package searchengine implements the web search engine substrate the
// X-Search evaluation queries: a ranked inverted-index engine over a
// synthetic topical corpus with Bing-compatible OR semantics, an HTTP JSON
// front end, and the honest-but-curious behaviour the paper's adversary
// model assumes (a query log an attack builds profiles from).
package searchengine

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"xsearch/internal/dataset"
)

// Document is one indexed web page.
type Document struct {
	ID      int    `json:"id"`
	URL     string `json:"url"`
	Title   string `json:"title"`
	Snippet string `json:"snippet"`
}

// CorpusConfig parameterizes synthetic corpus generation.
type CorpusConfig struct {
	// DocsPerTopic is the number of documents generated per topic.
	DocsPerTopic int
	// Seed fixes the corpus.
	Seed uint64
}

// DefaultCorpusConfig is the configuration used by the experiments: with
// ~40 topics this yields a corpus of ~8000 documents, large enough that
// top-20 result lists for different queries rarely collide by chance.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{DocsPerTopic: 200, Seed: 1}
}

// GenerateCorpus builds a deterministic synthetic corpus. Each document
// belongs to one topic: its title is 2-4 topic words, its snippet mixes
// 8-14 topic words with a few general words, mirroring how topical web
// pages share vocabulary with the queries that retrieve them.
func GenerateCorpus(cfg CorpusConfig) []Document {
	if cfg.DocsPerTopic <= 0 {
		cfg.DocsPerTopic = DefaultCorpusConfig().DocsPerTopic
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	docs := make([]Document, 0, len(dataset.Topics)*cfg.DocsPerTopic)
	id := 1
	for ti, topic := range dataset.Topics {
		for d := 0; d < cfg.DocsPerTopic; d++ {
			title := sampleWords(rng, topic.Words, 2+rng.IntN(3))
			snippetWords := sampleWords(rng, topic.Words, 8+rng.IntN(7))
			for i := 0; i < 2; i++ {
				if rng.Float64() < 0.5 {
					snippetWords = append(snippetWords,
						dataset.GeneralWords[rng.IntN(len(dataset.GeneralWords))])
				}
			}
			host := topic.Words[rng.IntN(len(topic.Words))] +
				dataset.DomainSuffixes[rng.IntN(len(dataset.DomainSuffixes))]
			docs = append(docs, Document{
				ID:      id,
				URL:     fmt.Sprintf("http://www.%s.com/%s/%d", host, topic.Name, ti*cfg.DocsPerTopic+d),
				Title:   strings.Join(title, " "),
				Snippet: strings.Join(snippetWords, " "),
			})
			id++
		}
	}
	return docs
}

// sampleWords draws n distinct words from pool (or all of them if n exceeds
// the pool size).
func sampleWords(rng *rand.Rand, pool []string, n int) []string {
	if n >= len(pool) {
		out := make([]string, len(pool))
		copy(out, pool)
		return out
	}
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}
