package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"xsearch/internal/dataset"
	"xsearch/internal/searchengine"
	"xsearch/internal/textutil"
)

// Algorithm 2 over the normalisation pipeline textutil had before its
// kernel — Tokenize, a token built rune by rune, counting through maps —
// kept verbatim as the reference FilterResults must agree with, whatever
// FilterResults and textutil.CommonWords do underneath.

func refFilterResults(original string, fakes []string, results []Result) []Result {
	queries := make([]string, 0, len(fakes)+1)
	queries = append(queries, original)
	queries = append(queries, fakes...)
	kept := make([]Result, 0, len(results))
	for _, r := range results {
		origScore := refResultScore(original, r)
		isMax := true
		for _, q := range queries[1:] {
			if refResultScore(q, r) > origScore {
				isMax = false
				break
			}
		}
		if isMax && origScore > 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

func refResultScore(query string, r Result) int {
	return refCommonWords(query, r.Title) + refCommonWords(query, r.Snippet)
}

func refCommonWords(a, b string) int {
	ta := refUniqueTerms(a)
	if len(ta) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(ta))
	for _, t := range ta {
		set[t] = struct{}{}
	}
	n := 0
	for _, t := range refUniqueTerms(b) {
		if _, ok := set[t]; ok {
			n++
		}
	}
	return n
}

func refUniqueTerms(s string) []string {
	var terms []string
	for _, t := range textutil.Tokenize(s) {
		if len(t) < 2 || textutil.IsStopword(t) {
			continue
		}
		terms = append(terms, textutil.Stem(t))
	}
	seen := make(map[string]struct{}, len(terms))
	out := terms[:0]
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// filterCase is one FilterResults input the way the proxy sees it: an
// original, its k fakes, and the engine's merged list for "q0 OR … OR qk".
type filterCase struct {
	original string
	fakes    []string
	results  []Result
}

var corpusIndex = sync.OnceValue(func() *searchengine.Index {
	return searchengine.BuildIndex(searchengine.GenerateCorpus(
		searchengine.CorpusConfig{DocsPerTopic: 40, Seed: 1}))
})

// corpusCases draws n cases from the synthetic query log and corpus:
// k+1 dataset queries each, perList results per sub-query.
func corpusCases(tb testing.TB, n, k, perList int) []filterCase {
	tb.Helper()
	cfg := dataset.DefaultGeneratorConfig()
	cfg.Seed = uint64(1000*k + perList)
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	queries := gen.GenerateQueries(n * (k + 1))
	cases := make([]filterCase, n)
	for i := range cases {
		subs := queries[i*(k+1) : (i+1)*(k+1)]
		c := filterCase{original: subs[0], fakes: subs[1:]}
		for _, hit := range corpusIndex().SearchOR(searchengine.JoinOR(subs), perList) {
			c.results = append(c.results, Result{URL: hit.URL, Title: hit.Title, Snippet: hit.Snippet})
		}
		cases[i] = c
	}
	return cases
}

func requireSameKept(t *testing.T, c filterCase) {
	t.Helper()
	got := FilterResults(c.original, c.fakes, c.results)
	want := refFilterResults(c.original, c.fakes, c.results)
	if got == nil || !slices.Equal(got, want) {
		t.Fatalf("FilterResults(%q, %q, %d results)\n kept %v\n reference kept %v",
			c.original, c.fakes, len(c.results), got, want)
	}
}

func TestFilterResultsMatchesReferenceOnCorpus(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		for _, perList := range []int{5, 20} {
			t.Run(fmt.Sprintf("k=%d/R=%d", k, perList), func(t *testing.T) {
				kept, total := 0, 0
				for _, c := range corpusCases(t, 12, k, perList) {
					requireSameKept(t, c)
					kept += len(FilterResults(c.original, c.fakes, c.results))
					total += len(c.results)
				}
				// The comparison must not be vacuous.
				if total < 12*perList || kept == 0 || kept == total {
					t.Fatalf("kept %d of %d results: the cases do not exercise the filter", kept, total)
				}
			})
		}
	}
}

func TestFilterResultsMatchesReferenceOnEdges(t *testing.T) {
	car := Result{URL: "u1", Title: "red sports car", Snippet: "a fast red car for sale"}
	boat := Result{URL: "u2", Title: "blue sailing boat", Snippet: "boats and sailing gear"}
	both := Result{URL: "u3", Title: "car and boat show", Snippet: "red car blue boat"}
	list := []Result{car, boat, both}
	for _, c := range []struct {
		name string
		filterCase
		wantURLs []string
	}{
		{"empty original", filterCase{"", []string{"red car"}, list}, nil},
		{"stopword-only original", filterCase{"the of and", []string{"blue boat"}, list}, nil},
		{"stopword-only fake", filterCase{"red car", []string{"the of and", ""}, list}, []string{"u1", "u3"}},
		{"all-zero scores", filterCase{"quantum physics", []string{"knitting yarn"}, list}, nil},
		{"a fake that ties", filterCase{"red car", []string{"blue boat"}, list}, []string{"u1", "u3"}},
		{"a fake that wins", filterCase{"car", []string{"red car sale"}, list}, nil},
		{"no fakes", filterCase{"red car", nil, list}, []string{"u1", "u3"}},
		{"duplicate results", filterCase{"red car", []string{"blue boat"}, []Result{car, car, boat, car}}, []string{"u1", "u1", "u1"}},
		{"stemmed and upper-case", filterCase{"RUNNING Shoes", []string{"boats"}, []Result{
			{URL: "u4", Title: "Best Runs", Snippet: "a shoe for runners"}, boat}}, []string{"u4"}},
		{"non-ASCII titles", filterCase{"café 東京 İstanbul", []string{"naïve K"}, []Result{
			{URL: "u5", Title: "CAFÉ 東京", Snippet: "istanbul café"},
			{URL: "u6", Title: "Naïve k", Snippet: "\xff\xfe naïve"},
			{URL: "u7", Title: "東京", Snippet: "naïve"}}}, []string{"u5", "u7"}},
		{"empty result text", filterCase{"red car", []string{"blue boat"}, []Result{{URL: "u8"}, car}}, []string{"u1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			requireSameKept(t, c.filterCase)
			var urls []string
			for _, r := range FilterResults(c.original, c.fakes, c.results) {
				urls = append(urls, r.URL)
			}
			if !slices.Equal(urls, c.wantURLs) {
				t.Fatalf("kept %q, want %q", urls, c.wantURLs)
			}
		})
	}
}

// TestFilterResultsAllocBudget bounds what one call may allocate on the paper
// workload's list shape (k = 3, 20 per sub-query, up to R = 80 merged
// results): 48·R + 64. The kernel costs about 35·R here — FilterResults still
// scores every (sub-query × result) pair from raw text; the pipeline before
// the kernel cost about 178·R. When the filter normalises each text once the
// budget drops to 5·R + 64 (ROADMAP item 1b).
func TestFilterResultsAllocBudget(t *testing.T) {
	for _, c := range corpusCases(t, 3, 3, 20) {
		budget := float64(48*len(c.results) + 64)
		got := testing.AllocsPerRun(5, func() { FilterResults(c.original, c.fakes, c.results) })
		if got > budget {
			t.Errorf("FilterResults(%q, 3 fakes, %d results): %v allocations, budget %v",
				c.original, len(c.results), got, budget)
		}
	}
}
