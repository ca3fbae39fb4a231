package searchengine

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func smallCorpus() []Document {
	return []Document{
		{ID: 1, URL: "http://a.com/1", Title: "red sports car", Snippet: "fast red sports car engine horsepower"},
		{ID: 2, URL: "http://b.com/2", Title: "blue sailing boat", Snippet: "sailing boat harbor anchor blue water"},
		{ID: 3, URL: "http://c.com/3", Title: "chicken recipe", Snippet: "easy chicken recipe dinner oven baked"},
		{ID: 4, URL: "http://d.com/4", Title: "car repair", Snippet: "engine repair mechanic brakes car garage"},
		{ID: 5, URL: "http://e.com/5", Title: "chocolate dessert recipe", Snippet: "chocolate cake dessert recipe baking sugar"},
	}
}

func TestSearchBasic(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	results := idx.Search("red car", 10)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].URL != "http://a.com/1" {
		t.Errorf("top result = %s, want a.com (red car doc)", results[0].URL)
	}
	// Scores non-increasing.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Error("scores not sorted")
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	if got := idx.Search("zzzquark", 10); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
	if got := idx.Search("", 10); got != nil {
		t.Errorf("empty query: expected nil, got %v", got)
	}
	if got := idx.Search("car", 0); got != nil {
		t.Errorf("k=0: expected nil, got %v", got)
	}
}

func TestSearchTopK(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	if got := idx.Search("recipe", 1); len(got) != 1 {
		t.Errorf("k=1 returned %d results", len(got))
	}
}

func TestSearchDeterministic(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	a := idx.Search("car engine", 10)
	b := idx.Search("car engine", 10)
	if !reflect.DeepEqual(a, b) {
		t.Error("search not deterministic")
	}
}

func TestSplitOR(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"red car", []string{"red car"}},
		{"red car OR blue boat", []string{"red car", "blue boat"}},
		{"a OR b OR c", []string{"a", "b", "c"}},
		{"a or b", []string{"a", "b"}},
		{"OR leading", []string{"leading"}},
		{"trailing OR", []string{"trailing"}},
		{"", nil},
		{"OR OR", nil},
	}
	for _, tt := range tests {
		got := SplitOR(tt.in)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("SplitOR(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestJoinSplitORRoundTrip(t *testing.T) {
	subs := []string{"red car", "chicken recipe", "sailing boat"}
	if got := SplitOR(strings.Join(subs, " OR ")); !reflect.DeepEqual(got, subs) {
		t.Errorf("round trip = %v", got)
	}
}

func TestSearchORMergesSubqueries(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	merged := idx.SearchOR("red car OR chicken recipe", 3)
	if len(merged) == 0 {
		t.Fatal("no merged results")
	}
	// Results must include hits for both sub-queries.
	var sawCar, sawRecipe bool
	for _, r := range merged {
		if strings.Contains(r.Title, "car") {
			sawCar = true
		}
		if strings.Contains(r.Title, "recipe") {
			sawRecipe = true
		}
	}
	if !sawCar || !sawRecipe {
		t.Errorf("merged results missing a sub-query's hits: %+v", merged)
	}
	// No duplicate URLs.
	seen := map[string]struct{}{}
	for _, r := range merged {
		if _, dup := seen[r.URL]; dup {
			t.Errorf("duplicate URL %s", r.URL)
		}
		seen[r.URL] = struct{}{}
	}
}

func TestMergeResultListsInterleaves(t *testing.T) {
	l1 := []Result{{URL: "a1"}, {URL: "a2"}}
	l2 := []Result{{URL: "b1"}, {URL: "b2"}}
	got := MergeResultLists([][]Result{l1, l2}, 10)
	want := []string{"a1", "b1", "a2", "b2"}
	for i, r := range got {
		if r.URL != want[i] {
			t.Fatalf("merge order %v", got)
		}
	}
}

func TestMergeResultListsDedupAndTruncate(t *testing.T) {
	l1 := []Result{{URL: "x"}, {URL: "y"}}
	l2 := []Result{{URL: "x"}, {URL: "z"}}
	got := MergeResultLists([][]Result{l1, l2}, 2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].URL != "x" || got[1].URL != "y" {
		t.Errorf("got %v", got)
	}
}

func TestGenerateCorpus(t *testing.T) {
	docs := GenerateCorpus(CorpusConfig{DocsPerTopic: 5, Seed: 3})
	if len(docs) == 0 {
		t.Fatal("empty corpus")
	}
	ids := map[int]struct{}{}
	for _, d := range docs {
		if d.Title == "" || d.Snippet == "" || !strings.HasPrefix(d.URL, "http://") {
			t.Fatalf("malformed doc %+v", d)
		}
		if _, dup := ids[d.ID]; dup {
			t.Fatalf("duplicate doc ID %d", d.ID)
		}
		ids[d.ID] = struct{}{}
	}
	// Deterministic for the same seed.
	again := GenerateCorpus(CorpusConfig{DocsPerTopic: 5, Seed: 3})
	if !reflect.DeepEqual(docs, again) {
		t.Error("corpus generation not deterministic")
	}
}

// Searching for a document's own title must rank that document first (or at
// least retrieve it) — the self-retrieval property the accuracy experiment
// relies on.
func TestSelfRetrieval(t *testing.T) {
	docs := GenerateCorpus(CorpusConfig{DocsPerTopic: 20, Seed: 5})
	idx := BuildIndex(docs)
	hits := 0
	for i := 0; i < 50; i++ {
		d := docs[i*len(docs)/50]
		results := idx.Search(d.Title, 20)
		for _, r := range results {
			if r.URL == d.URL {
				hits++
				break
			}
		}
	}
	if hits < 45 {
		t.Errorf("self-retrieval only %d/50", hits)
	}
}

func TestSearchORPropertySubsetOfUnion(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	queries := []string{"red car", "chicken recipe", "sailing boat", "chocolate dessert"}
	f := func(aIdx, bIdx uint8) bool {
		qa := queries[int(aIdx)%len(queries)]
		qb := queries[int(bIdx)%len(queries)]
		merged := idx.SearchOR(qa+" OR "+qb, 5)
		union := map[string]struct{}{}
		for _, r := range idx.Search(qa, 5) {
			union[r.URL] = struct{}{}
		}
		for _, r := range idx.Search(qb, 5) {
			union[r.URL] = struct{}{}
		}
		for _, r := range merged {
			if _, ok := union[r.URL]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
