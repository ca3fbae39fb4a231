// Package answer implements the in-enclave answer tier: a trusted,
// mutable, EPC-charged inverted index over recently fetched results that
// serves repeat and near-repeat (rephrased) queries entirely inside the
// enclave, with zero upstream round trips.
//
// Unlike internal/core's ResultCache — an exact-key table that only hits
// on byte-identical repeats — the answer index ranks by TF-IDF term
// match (internal/searchengine's immutable index grown into an
// incrementally updatable one with per-document eviction), so "chicken
// recipe oven" hits documents fetched for "oven chicken recipes".
//
// EPC contract: identical to ResultCache. Every mutation takes
// charge/free callbacks (env.Alloc and env.Free in the enclave) and
// invokes them UNDER the index lock, so the EPC meter moves atomically
// with the document it accounts for; a document is stored only if its
// charge succeeds, and its bytes are freed exactly once, when it leaves
// the index. The enclave-wide invariant extends to
// heap == history + cache + index.
//
// Forward privacy: the host observes only EPC charge/free amounts (the
// simulated analogue of page-level EPC traffic). Every document's charge
// is rounded up to a fixed arena quantum, so the observable allocation
// pattern is a coarse function of total document size — which the host
// already learned from streaming the fetch — and never of the terms the
// document was indexed under. Inserts happen only inside the
// already-measured winner/resume ecalls; there is no per-insert ecall
// whose timing could key on index contents.
package answer

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/textutil"
)

// Byte-accounting constants, in the spirit of core's cacheEntryOverhead.
const (
	// arenaQuantum is the allocation granularity every document charge is
	// rounded up to. The quantization is the forward-privacy mechanism:
	// two documents whose term sets differ but whose payloads are of
	// similar size charge identical amounts, so the host's EPC trace
	// cannot distinguish them.
	arenaQuantum = 512
	// docOverhead approximates one document's fixed cost: map slots in
	// the doc table and FIFO order entry, the doc struct, expiry, norm.
	docOverhead = 160
	// termOverhead approximates the per-distinct-term cost: the posting
	// map entry, the tf map entry, and string-header slack.
	termOverhead = 64
	// minMatchingDocs is the confidence floor's second leg: a query that
	// matches fewer than this many indexed documents falls through to the
	// upstream pipeline regardless of score — a one-document "answer" is
	// more likely vocabulary overlap than a real repeat.
	minMatchingDocs = 2
)

// DefaultMinScore is the score leg of the confidence floor when the
// caller does not configure one: the best-ranked document must score at
// least this (TF-IDF cosine, same scale as internal/searchengine) for
// the index to answer instead of the upstream.
const DefaultMinScore = 0.1

// Index is the shard-local answer index. Safe for concurrent use; all
// EPC charging happens under its lock.
type Index struct {
	mu       sync.Mutex
	maxBytes int64
	ttl      time.Duration
	minScore float64
	docs     map[string]*doc // keyed by URL
	order    []string        // insertion order, oldest first (FIFO eviction)
	postings map[string]map[string]float64
	bytes    int64 // quantized, charged footprint
}

// doc is one indexed result document.
type doc struct {
	res     core.Result
	terms   map[string]float64 // tf per normalized term (title terms x2)
	norm    float64            // vector norm for cosine normalization
	size    int64              // quantized charged size
	expires time.Time
}

// New creates an answer index bounded to maxBytes total charged
// footprint, with per-document TTL and the score leg of the confidence
// floor (<= 0 selects DefaultMinScore).
func New(maxBytes int64, ttl time.Duration, minScore float64) (*Index, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("answer: index maxBytes must be positive, got %d", maxBytes)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("answer: index ttl must be positive, got %v", ttl)
	}
	if minScore <= 0 {
		minScore = DefaultMinScore
	}
	return &Index{
		maxBytes: maxBytes,
		ttl:      ttl,
		minScore: minScore,
		docs:     make(map[string]*doc),
		postings: make(map[string]map[string]float64),
	}, nil
}

// docSize returns the quantized bytes a result with term vector tf is
// charged: the payload strings plus per-term overheads, rounded up to the
// arena quantum so the charge never leaks term structure.
func docSize(r core.Result, tf map[string]float64) int64 {
	raw := int64(docOverhead) + int64(len(r.URL)) + int64(len(r.Title)) + int64(len(r.Snippet))
	for t := range tf {
		raw += termOverhead + int64(len(t))
	}
	arenas := (raw + arenaQuantum - 1) / arenaQuantum
	return arenas * arenaQuantum
}

// docVectors builds the canonical term-frequency vector of every result
// with a URL: the same normalization pipeline as internal/searchengine
// (title terms weighted double), one textutil.Termer for the batch. It
// touches no index state — Insert and Merge call it before taking the lock,
// so a batch being normalised never stalls a concurrent Query.
func docVectors(results []core.Result) []map[string]float64 {
	var tm textutil.Termer
	var terms []string
	tfs := make([]map[string]float64, len(results))
	for i, r := range results {
		if r.URL == "" {
			continue
		}
		tf := make(map[string]float64)
		terms = tm.AppendTerms(terms[:0], r.Title)
		for _, t := range terms {
			tf[t] += 2
		}
		terms = tm.AppendTerms(terms[:0], r.Snippet)
		for _, t := range terms {
			tf[t]++
		}
		tfs[i] = tf
	}
	return tfs
}

// Insert indexes the filtered results of one fetched query, deduplicating
// by URL (a re-fetched document replaces its previous version and
// refreshes its TTL). Expired documents are purged first; FIFO eviction
// makes room; each document's quantized size is charged through charge
// under the lock, and a document whose charge fails (EPC exhausted) or
// that alone exceeds the byte bound is simply not stored. Returns the
// number of documents stored.
func (x *Index) Insert(results []core.Result, now time.Time, charge func(int64) error, free func(int64)) int {
	tfs := docVectors(results)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.purgeExpiredLocked(now, free)
	stored := 0
	for i, r := range results {
		if x.insertLocked(r, tfs[i], now.Add(x.ttl), charge, free) {
			stored++
		}
	}
	return stored
}

// insertLocked stores one document, whose term vector is tf, with the
// given absolute expiry. Caller holds x.mu.
func (x *Index) insertLocked(r core.Result, tf map[string]float64, expires time.Time, charge func(int64) error, free func(int64)) bool {
	if len(tf) == 0 {
		return false // no URL or nothing to index; an unmatchable doc would strand bytes
	}
	var norm float64
	for _, f := range tf {
		norm += f * f
	}
	size := docSize(r, tf)
	x.removeLocked(r.URL, free)
	if size > x.maxBytes {
		return false
	}
	for x.bytes+size > x.maxBytes && len(x.order) > 0 {
		x.removeLocked(x.order[0], free)
	}
	if charge != nil {
		if err := charge(size); err != nil {
			return false
		}
	}
	d := &doc{
		res:     core.Result{URL: r.URL, Title: r.Title, Snippet: r.Snippet},
		terms:   tf,
		norm:    math.Sqrt(norm),
		size:    size,
		expires: expires,
	}
	x.docs[r.URL] = d
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

// Query scores every fresh document matching any query term (disjunctive
// TF-IDF retrieval, the searchengine ranking grown mutable) and returns
// the top-k, but only when the confidence floor holds: at least
// minMatchingDocs documents matched and the best score reaches the
// configured minimum. Below the floor it returns ok=false and the caller
// falls through to the upstream pipeline. Expired documents are purged
// lazily, their bytes released through free under the lock.
func (x *Index) Query(q string, k int, now time.Time, free func(int64)) (results []core.Result, ok bool) {
	terms := textutil.UniqueTerms(q)
	if len(terms) == 0 || k <= 0 {
		return nil, false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.purgeExpiredLocked(now, free)
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
	if k > len(all) {
		k = len(all)
	}
	out := make([]core.Result, k)
	for i := 0; i < k; i++ {
		out[i] = x.docs[all[i].url].res
	}
	return out, true
}

// snapshotDoc is the sealed wire form of one document. Term vectors are
// not serialized — they are deterministic from the payload and rebuilt
// on merge, keeping the blob minimal.
type snapshotDoc struct {
	URL     string `json:"url"`
	Title   string `json:"title"`
	Snippet string `json:"snippet"`
	Expires int64  `json:"expires"` // UnixNano; absolute so TTLs survive the handoff
}

type snapshotBlob struct {
	Docs []snapshotDoc `json:"docs"`
}

// Snapshot serializes the index contents (FIFO order preserved) for
// sealing. The caller seals the blob before it crosses the enclave
// boundary; the host moves opaque bytes only.
func (x *Index) Snapshot() ([]byte, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	blob := snapshotBlob{Docs: make([]snapshotDoc, 0, len(x.order))}
	for _, url := range x.order {
		d := x.docs[url]
		blob.Docs = append(blob.Docs, snapshotDoc{
			URL:     d.res.URL,
			Title:   d.res.Title,
			Snippet: d.res.Snippet,
			Expires: d.expires.UnixNano(),
		})
	}
	return json.Marshal(&blob)
}

// Merge appends a snapshot from another index (the sealed drain/handoff
// path): every still-fresh document not already present is inserted with
// its original expiry, charged through charge under the lock exactly
// like a live insert — so the EPC invariant holds at every step of the
// merge, and a charge failure skips the document rather than corrupting
// the meter. Documents already present keep the local (fresher or equal)
// version. Returns how many documents were added and the bytes charged.
func (x *Index) Merge(data []byte, now time.Time, charge func(int64) error, free func(int64)) (added int, bytes int64, err error) {
	var blob snapshotBlob
	if err := json.Unmarshal(data, &blob); err != nil {
		return 0, 0, fmt.Errorf("answer: bad snapshot: %w", err)
	}
	// Normalise what is still fresh before taking the lock.
	fresh := make([]core.Result, 0, len(blob.Docs))
	expiries := make([]time.Time, 0, len(blob.Docs))
	for _, sd := range blob.Docs {
		if expires := time.Unix(0, sd.Expires); !now.After(expires) {
			fresh = append(fresh, core.Result{URL: sd.URL, Title: sd.Title, Snippet: sd.Snippet})
			expiries = append(expiries, expires)
		}
	}
	tfs := docVectors(fresh)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.purgeExpiredLocked(now, free)
	before := x.bytes
	for i, r := range fresh {
		if _, present := x.docs[r.URL]; present {
			continue
		}
		if x.insertLocked(r, tfs[i], expiries[i], charge, free) {
			added++
		}
	}
	return added, x.bytes - before, nil
}

// PurgeExpired drops every document stale at time now, releasing bytes
// through free under the lock.
func (x *Index) PurgeExpired(now time.Time, free func(int64)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.purgeExpiredLocked(now, free)
}

// Docs returns the number of indexed documents.
func (x *Index) Docs() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.docs)
}

// Bytes returns the charged (quantized) footprint.
func (x *Index) Bytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.bytes
}

// MaxBytes returns the configured byte bound.
func (x *Index) MaxBytes() int64 { return x.maxBytes }

// TTL returns the configured per-document lifetime.
func (x *Index) TTL() time.Duration { return x.ttl }

// MinScore returns the configured score floor.
func (x *Index) MinScore() float64 { return x.minScore }

// removeLocked unlinks url from the doc table, every posting list, the
// FIFO order, and the byte meter, releasing its quantized size through
// free (may be nil). Caller holds x.mu.
func (x *Index) removeLocked(url string, free func(int64)) {
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

// purgeExpiredLocked drops stale documents, releasing bytes through
// free. Caller holds x.mu. Documents enter only at the back of the
// order with a shared TTL (insertLocked removes any old doc for the URL
// first), so with monotonic insertion times the order is expiry-sorted
// and stopping at the first fresh document keeps the purge O(expired).
// Merge is the exception — it preserves foreign expiries, which may
// interleave — so Merge-carried docs hiding behind a fresh one are
// still collected by the full sweep a later purge or removal performs
// once they reach the front.
func (x *Index) purgeExpiredLocked(now time.Time, free func(int64)) {
	for len(x.order) > 0 {
		url := x.order[0]
		if d := x.docs[url]; !now.After(d.expires) {
			return
		}
		x.removeLocked(url, free)
	}
}
