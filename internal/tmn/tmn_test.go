package tmn

import (
	"strings"
	"testing"

	"xsearch/internal/dataset"
)

func newsVocab() map[string]struct{} {
	set := make(map[string]struct{}, len(dataset.NewsWords))
	for _, w := range dataset.NewsWords {
		set[w] = struct{}{}
	}
	return set
}

func TestNewFeedValidation(t *testing.T) {
	if _, err := NewFeed(0, 1); err == nil {
		t.Error("zero headlines accepted")
	}
}

func TestFeedHeadlines(t *testing.T) {
	f, err := NewFeed(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := f.headlines
	if len(hs) != 50 {
		t.Fatalf("got %d headlines", len(hs))
	}
	vocab := newsVocab()
	for _, h := range hs {
		words := strings.Fields(h)
		if len(words) < 4 || len(words) > 8 {
			t.Errorf("headline %q has %d words", h, len(words))
		}
		for _, w := range words {
			if _, ok := vocab[w]; !ok {
				t.Errorf("headline word %q not in news vocabulary", w)
			}
		}
	}
}

func TestFeedDeterministic(t *testing.T) {
	f1, err := NewFeed(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFeed(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := f1.headlines, f2.headlines
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("feeds differ under same seed")
		}
	}
}

func TestFakeQueryFromNewsVocabulary(t *testing.T) {
	f, err := NewFeed(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(f, 2)
	vocab := newsVocab()
	for i := 0; i < 100; i++ {
		fq := g.FakeQuery()
		words := strings.Fields(fq)
		if len(words) < 1 || len(words) > 3 {
			t.Errorf("fake %q has %d words", fq, len(words))
		}
		for _, w := range words {
			if _, ok := vocab[w]; !ok {
				t.Errorf("fake word %q not from news vocabulary", w)
			}
		}
	}
}

// The Figure 1 property: TMN fakes share (almost) no vocabulary with
// topical user queries.
func TestFakesDisjointFromQueryTopics(t *testing.T) {
	topicVocab := map[string]struct{}{}
	for _, topic := range dataset.Topics {
		for _, w := range topic.Words {
			topicVocab[w] = struct{}{}
		}
	}
	f, err := NewFeed(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(f, 2)
	overlap := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		for _, w := range strings.Fields(g.FakeQuery()) {
			if _, ok := topicVocab[w]; ok {
				overlap++
			}
		}
	}
	if overlap > trials/10 {
		t.Errorf("news fakes overlap topic vocabulary %d times", overlap)
	}
}
