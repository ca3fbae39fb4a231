package textutil_test

import (
	"testing"

	"xsearch/internal/dataset"
	"xsearch/internal/searchengine"
	"xsearch/internal/textutil"
)

// TestStemMatchesFrozenOnCorpus: the stemmer gives the frozen Porter steps'
// stem for every token of the benchmark's corpus (40 documents per topic,
// the first seeds), of generated queries, and of every dataset word list.
func TestStemMatchesFrozenOnCorpus(t *testing.T) {
	words := map[string]struct{}{}
	add := func(text string) {
		for _, w := range textutil.Tokenize(text) {
			words[w] = struct{}{}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, d := range searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 40, Seed: seed}) {
			add(d.URL)
			add(d.Title)
			add(d.Snippet)
		}
	}
	gen, err := dataset.NewGenerator(dataset.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.GenerateQueries(2000) {
		add(q)
	}
	for _, topic := range dataset.Topics {
		add(topic.Name)
		for _, w := range topic.Words {
			add(w)
		}
	}
	for _, list := range [][]string{dataset.GeneralWords, dataset.NewsWords, dataset.DictionaryWords, dataset.DomainSuffixes} {
		for _, w := range list {
			add(w)
		}
	}
	if len(words) < 1000 {
		t.Fatalf("only %d distinct words: the corpora did not load", len(words))
	}
	for w := range words {
		if got, want := textutil.Stem(w), textutil.FrozenStem(w); got != want {
			t.Errorf("Stem(%q) = %q, frozen steps %q", w, got, want)
		}
	}
	t.Logf("%d distinct words", len(words))
}
