package answer

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/searchengine"
	"xsearch/internal/textutil"
)

// The answer index as it stood before the slot layout — a URL-keyed doc
// table, nested term -> URL -> tf postings, and a Query that builds a
// score map over every match and sorts all of it — kept as the reference
// Index must agree with: the same results in the same order, the same ok,
// the same Bytes and Docs, whatever Index does underneath. It shares only
// docVectors and docSize, which the layout did not touch.

type refIndex struct {
	maxBytes int64
	ttl      time.Duration
	minScore float64
	docs     map[string]*refDoc
	order    []string // insertion order, oldest first
	postings map[string]map[string]float64
	bytes    int64
}

type refDoc struct {
	res     core.Result
	terms   map[string]float64
	norm    float64
	size    int64
	expires time.Time
}

func newRefIndex(maxBytes int64, ttl time.Duration, minScore float64) *refIndex {
	if minScore <= 0 {
		minScore = DefaultMinScore
	}
	return &refIndex{
		maxBytes: maxBytes,
		ttl:      ttl,
		minScore: minScore,
		docs:     make(map[string]*refDoc),
		postings: make(map[string]map[string]float64),
	}
}

func (x *refIndex) insert(results []core.Result, now time.Time, charge func(int64) error, free func(int64)) int {
	tfs := docVectors(results)
	x.purge(now, free)
	stored := 0
	for i, r := range results {
		if x.insertDoc(r, tfs[i], now.Add(x.ttl), charge, free) {
			stored++
		}
	}
	return stored
}

func (x *refIndex) insertDoc(r core.Result, tf map[string]float64, expires time.Time, charge func(int64) error, free func(int64)) bool {
	if len(tf) == 0 {
		return false
	}
	var norm float64
	for _, f := range tf {
		norm += f * f
	}
	size := docSize(r, tf)
	x.remove(r.URL, free)
	if size > x.maxBytes {
		return false
	}
	for x.bytes+size > x.maxBytes && len(x.order) > 0 {
		x.remove(x.order[0], free)
	}
	if charge != nil {
		if err := charge(size); err != nil {
			return false
		}
	}
	x.docs[r.URL] = &refDoc{res: r, terms: tf, norm: math.Sqrt(norm), size: size, expires: expires}
	x.order = append(x.order, r.URL)
	x.bytes += size
	for t, f := range tf {
		posts := x.postings[t]
		if posts == nil {
			posts = make(map[string]float64)
			x.postings[t] = posts
		}
		posts[r.URL] = f
	}
	return true
}

// queryRef is Query before the slot layout.
func (x *refIndex) queryRef(q string, k int, now time.Time, free func(int64)) ([]core.Result, bool) {
	terms := textutil.UniqueTerms(q)
	if len(terms) == 0 || k <= 0 {
		return nil, false
	}
	x.purge(now, free)
	n := len(x.docs)
	if n < minMatchingDocs {
		return nil, false
	}
	scores := make(map[string]float64)
	for _, t := range terms {
		posts, present := x.postings[t]
		if !present {
			continue
		}
		w := math.Log(1 + float64(n)/float64(len(posts)+1))
		for url, f := range posts {
			scores[url] += f * w * w
		}
	}
	if len(scores) < minMatchingDocs {
		return nil, false
	}
	type scored struct {
		url   string
		score float64
	}
	all := make([]scored, 0, len(scores))
	for url, s := range scores {
		all = append(all, scored{url, s / x.docs[url].norm})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].url < all[j].url
	})
	if all[0].score < x.minScore {
		return nil, false
	}
	k = min(k, len(all))
	out := make([]core.Result, k)
	for i := range out {
		out[i] = x.docs[all[i].url].res
	}
	return out, true
}

func (x *refIndex) remove(url string, free func(int64)) {
	d, present := x.docs[url]
	if !present {
		return
	}
	delete(x.docs, url)
	x.bytes -= d.size
	for t := range d.terms {
		posts := x.postings[t]
		delete(posts, url)
		if len(posts) == 0 {
			delete(x.postings, t)
		}
	}
	for i, u := range x.order {
		if u == url {
			x.order = append(x.order[:i], x.order[i+1:]...)
			break
		}
	}
	if free != nil {
		free(d.size)
	}
}

func (x *refIndex) purge(now time.Time, free func(int64)) {
	for len(x.order) > 0 && now.After(x.docs[x.order[0]].expires) {
		x.remove(x.order[0], free)
	}
}

// requireSameAnswer fails unless Index and the reference gave the same
// answer to one query.
func requireSameAnswer(t *testing.T, step string, got []core.Result, gotOK bool, want []core.Result, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Index ok=%t %v\nreference ok=%t %v", step, gotOK, got, wantOK, want)
	}
}

// requireSameState fails unless Index and the reference hold as many
// documents and charge the same bytes.
func requireSameState(t *testing.T, step string, x *Index, ref *refIndex) {
	t.Helper()
	if x.Bytes() != ref.bytes || x.Docs() != len(ref.docs) {
		t.Fatalf("%s: Index bytes=%d docs=%d, reference bytes=%d docs=%d",
			step, x.Bytes(), x.Docs(), ref.bytes, len(ref.docs))
	}
}

// TestIndexQueryMatchesRef drives Index and the reference through the
// same seeded Insert / Query / expiry sequence over the engine corpus, at
// byte bounds from constant FIFO eviction to none, and requires the same
// answer to every query and the same footprint after every step.
func TestIndexQueryMatchesRef(t *testing.T) {
	corpus := searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 15, Seed: 7})
	const ttl = time.Minute
	for _, bound := range []int64{64 << 10, 512 << 10, 8 << 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("bound=%d/seed=%d", bound, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(bound)))
				minScore := []float64{0, 1e-9, 0.3}[seed%3]
				x, err := New(bound, ttl, minScore)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefIndex(bound, ttl, minScore)
				// A meter tighter than the bound on one seed makes
				// charges fail before eviction does.
				var limit int64
				if seed == 2 {
					limit = bound / 2
				}
				xm, rm := &meter{limit: limit}, &meter{limit: limit}
				now := time.Unix(1_700_000_000, 0)
				hits, misses, peak := 0, 0, 0
				for step := 0; step < 1500; step++ {
					name := fmt.Sprintf("step %d", step)
					switch op := rng.IntN(50); {
					case op < 15: // a fetched result list
						batch := make([]core.Result, 1+rng.IntN(20))
						for i := range batch {
							d := corpus[rng.IntN(len(corpus))]
							batch[i] = core.Result{URL: d.URL, Title: d.Title, Snippet: d.Snippet}
						}
						if got, want := x.Insert(batch, now, xm.charge, xm.free), ref.insert(batch, now, rm.charge, rm.free); got != want {
							t.Fatalf("%s: Insert stored %d, reference %d", name, got, want)
						}
					case op < 49: // a query drawn from the corpus vocabulary
						d := corpus[rng.IntN(len(corpus))]
						words := strings.Fields(d.Title + " " + d.Snippet)
						q := make([]string, 1+rng.IntN(4))
						for i := range q {
							q[i] = words[rng.IntN(len(words))]
						}
						qs, k := strings.Join(q, " "), 1+rng.IntN(25)
						got, gotOK := x.Query(qs, k, now, xm.free)
						want, wantOK := ref.queryRef(qs, k, now, rm.free)
						requireSameAnswer(t, fmt.Sprintf("%s: Query(%q, %d)", name, qs, k), got, gotOK, want, wantOK)
						if gotOK {
							hits++
						} else {
							misses++
						}
					default: // a quiet spell long enough for some TTLs to run out
						now = now.Add(time.Duration(rng.Int64N(int64(ttl))))
					}
					now = now.Add(time.Duration(rng.IntN(200)) * time.Millisecond)
					requireSameState(t, name, x, ref)
					requireBalanced(t, name, x, xm)
					peak = max(peak, x.Docs())
				}
				// Freed slots are reused: the slot table never outgrows the
				// most documents held at once by more than one batch.
				if len(x.docs) > peak+20 {
					t.Fatalf("%d slots for at most %d documents held at once", len(x.docs), peak)
				}
				if x.Docs() == 0 || hits == 0 || misses == 0 {
					t.Fatalf("the sequence exercised little: %d docs left, %d hits, %d misses", x.Docs(), hits, misses)
				}
				t.Logf("%d hits, %d misses, %d docs left", hits, misses, x.Docs())
				snap := x.Snapshot()
				for i, url := range ref.order {
					if snap[i].URL != url {
						t.Fatalf("order[%d] = %q, reference %q", i, snap[i].URL, url)
					}
				}
			})
		}
	}
}

// BenchmarkIndexQuery times Query and the reference on the same index: the
// engine corpus, 1 600 documents, queries drawn from its titles.
func BenchmarkIndexQuery(b *testing.B) {
	corpus := searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 40, Seed: 1})
	results := make([]core.Result, len(corpus))
	queries := make([]string, len(corpus))
	for i, d := range corpus {
		results[i] = core.Result{URL: d.URL, Title: d.Title, Snippet: d.Snippet}
		queries[i] = d.Title
	}
	now := time.Now()
	x, err := New(64<<20, time.Hour, 0)
	if err != nil {
		b.Fatal(err)
	}
	x.Insert(results, now, nil, nil)
	ref := newRefIndex(64<<20, time.Hour, 0)
	ref.insert(results, now, nil, nil)
	b.Run("slots", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			x.Query(queries[i%len(queries)], 20, now, nil)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			ref.queryRef(queries[i%len(queries)], 20, now, nil)
		}
	})
}
