package searchengine

import (
	"math"
	"sort"
	"strings"

	"xsearch/internal/textutil"
)

// Result is one ranked search hit.
type Result struct {
	URL     string  `json:"url"`
	Title   string  `json:"title"`
	Snippet string  `json:"snippet"`
	Score   float64 `json:"score"`
}

// Index is an in-memory inverted index with TF-IDF ranking. It is immutable
// after construction and safe for concurrent searches.
type Index struct {
	docs     []Document
	postings map[string][]posting
	docLen   []float64 // per-doc vector norm for cosine normalization
	avgLen   float64
}

type posting struct {
	doc  int // index into docs
	freq float64
}

// BuildIndex indexes the documents. Title terms are weighted double, the
// usual heuristic for web search fields.
func BuildIndex(docs []Document) *Index {
	idx := &Index{
		docs:     docs,
		postings: make(map[string][]posting),
		docLen:   make([]float64, len(docs)),
	}
	var totalLen float64
	var tm textutil.Termer // one memo for the whole corpus: its vocabulary is stemmed once
	var terms []string
	for di, d := range docs {
		tf := map[string]float64{}
		terms = tm.AppendTerms(terms[:0], d.Title)
		for _, t := range terms {
			tf[t] += 2
		}
		terms = tm.AppendTerms(terms[:0], d.Snippet)
		for _, t := range terms {
			tf[t]++
		}
		var norm float64
		for t, f := range tf {
			idx.postings[t] = append(idx.postings[t], posting{doc: di, freq: f})
			norm += f * f
		}
		idx.docLen[di] = math.Sqrt(norm)
		totalLen += idx.docLen[di]
	}
	if len(docs) > 0 {
		idx.avgLen = totalLen / float64(len(docs))
	}
	return idx
}

// idf is the smoothed inverse document frequency of term t.
func (idx *Index) idf(t string) float64 {
	df := len(idx.postings[t])
	return math.Log(1 + float64(len(idx.docs))/float64(df+1))
}

// Search scores all documents matching any query term (disjunctive
// retrieval) and returns the top-k by TF-IDF cosine. A document's score sums
// tf*idf^2 over matched terms, normalized by document length; ties break by
// document ID so rankings are deterministic.
func (idx *Index) Search(query string, k int) []Result {
	terms := textutil.UniqueTerms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	scores := map[int]float64{}
	for _, t := range terms {
		posts, ok := idx.postings[t]
		if !ok {
			continue
		}
		w := idx.idf(t)
		for _, p := range posts {
			scores[p.doc] += p.freq * w * w
		}
	}
	if len(scores) == 0 {
		return nil
	}
	type scored struct {
		doc   int
		score float64
	}
	all := make([]scored, 0, len(scores))
	for doc, s := range scores {
		all = append(all, scored{doc, s / idx.docLen[doc]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].doc < all[j].doc
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		d := idx.docs[all[i].doc]
		out[i] = Result{URL: d.URL, Title: d.Title, Snippet: d.Snippet, Score: all[i].score}
	}
	return out
}

// SearchOR evaluates an obfuscated query of the form
// "q1 OR q2 OR ... OR qn". Like Bing circa 2017 (per the paper §5.3.2), the
// native OR operator only treats single terms reliably; SearchOR therefore
// implements the paper's methodology: split on the OR operator, run each
// sub-query independently, and merge the k result lists by interleaving
// rank positions (rank 1 of each list, then rank 2, ...), deduplicating by
// URL. The merged list is truncated to perList*numSubqueries entries.
func (idx *Index) SearchOR(query string, perList int) []Result {
	subs := SplitOR(query)
	if len(subs) == 0 {
		return nil
	}
	if len(subs) == 1 {
		return idx.Search(subs[0], perList)
	}
	lists := make([][]Result, len(subs))
	for i, q := range subs {
		lists[i] = idx.Search(q, perList)
	}
	return MergeResultLists(lists, perList*len(subs))
}

// SplitOR splits a query on the top-level OR operator (case-insensitive,
// token-bounded). A query with no OR returns a single element.
func SplitOR(query string) []string {
	fields := strings.Fields(query)
	var subs []string
	var cur []string
	for _, f := range fields {
		if strings.EqualFold(f, "or") {
			if len(cur) > 0 {
				subs = append(subs, strings.Join(cur, " "))
				cur = cur[:0]
			}
			continue
		}
		cur = append(cur, f)
	}
	if len(cur) > 0 {
		subs = append(subs, strings.Join(cur, " "))
	}
	return subs
}

// MergeResultLists interleaves ranked lists position by position,
// deduplicating by URL, and truncates to max entries. This reproduces the
// paper's merge of the (k+1) independent sub-query result sets.
func MergeResultLists(lists [][]Result, max int) []Result {
	var out []Result
	seen := map[string]struct{}{}
	for pos := 0; ; pos++ {
		advanced := false
		for _, l := range lists {
			if pos >= len(l) {
				continue
			}
			advanced = true
			r := l[pos]
			if _, dup := seen[r.URL]; dup {
				continue
			}
			seen[r.URL] = struct{}{}
			out = append(out, r)
			if len(out) >= max {
				return out
			}
		}
		if !advanced {
			return out
		}
	}
}
