// Package tmn implements the TrackMeNot baseline (Howe & Nissenbaum):
// fake queries drawn from RSS news feeds, independent of the user's real
// queries. The paper's Figure 1 shows why this fails: RSS vocabulary is so
// different from real query vocabulary that fakes are trivially
// distinguishable. The package simulates the RSS feeds with a seeded
// headline generator over a news vocabulary disjoint from the query topics.
package tmn

import (
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"

	"xsearch/internal/dataset"
)

// Feed simulates an RSS news feed: a fixed set of headlines.
type Feed struct {
	headlines []string
}

// NewFeed generates numHeadlines synthetic headlines from the news
// vocabulary, seeded for reproducibility.
func NewFeed(numHeadlines int, seed uint64) (*Feed, error) {
	if numHeadlines <= 0 {
		return nil, fmt.Errorf("tmn: numHeadlines must be positive, got %d", numHeadlines)
	}
	rng := mrand.New(mrand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	f := &Feed{headlines: make([]string, numHeadlines)}
	for i := range f.headlines {
		f.headlines[i] = headline(rng)
	}
	return f, nil
}

// headline builds one synthetic news headline (4-8 news-vocabulary words).
func headline(rng *mrand.Rand) string {
	n := 4 + rng.IntN(5)
	words := make([]string, n)
	for i := range words {
		words[i] = dataset.NewsWords[rng.IntN(len(dataset.NewsWords))]
	}
	return strings.Join(words, " ")
}

// Generator produces TrackMeNot-style fake queries from a feed.
type Generator struct {
	feed *Feed

	mu  sync.Mutex
	rng *mrand.Rand
}

// NewGenerator wraps a feed with a seeded sampler.
func NewGenerator(feed *Feed, seed uint64) *Generator {
	return &Generator{
		feed: feed,
		rng:  mrand.New(mrand.NewPCG(seed, seed^0xbb67ae8584caa73b)),
	}
}

// FakeQuery extracts 1-3 consecutive words from a random headline, the way
// TrackMeNot seeds queries from RSS items.
func (g *Generator) FakeQuery() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.feed.headlines[g.rng.IntN(len(g.feed.headlines))]
	words := strings.Fields(h)
	n := 1 + g.rng.IntN(3)
	if n > len(words) {
		n = len(words)
	}
	start := g.rng.IntN(len(words) - n + 1)
	return strings.Join(words[start:start+n], " ")
}
