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
//
// Layout: every stored document holds a dense int32 slot (freed slots are
// reused) and keeps its term list for removal. Postings are pointer-free:
// term -> []posting{slot, tf}. Query adds weights into an index-owned
// []float64 indexed by slot, records the slots it touched, divides them by
// their norms in place, sorts only those (score descending, then URL) and
// zeroes them before it unlocks: no per-query map, and no allocation but
// its terms and its result slice. The per-document EPC charge (docSize) is
// unchanged by the layout. Query's memory access pattern — which posting
// lists and slots it reads — is still data-dependent: the page-level
// channel ROADMAP item 12 models for the history ring.
package answer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
	// docOverhead approximates one document's fixed cost: its URL-to-slot
	// map entry and order entry, the doc struct, expiry, norm.
	docOverhead = 160
	// termOverhead approximates the per-distinct-term cost: the posting,
	// the doc's term-list entry, and string-header slack.
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
	mu        sync.Mutex
	maxBytes  int64
	ttl       time.Duration
	minScore  float64
	slots     map[string]int32 // URL -> slot of a stored doc
	docs      []doc            // by slot; a freed slot holds the zero doc
	freeSlots []int32          // freed slots, reused before docs grows
	order     []int32          // stored slots by expiry, earliest first (FIFO eviction)
	postings  map[string][]posting
	bytes     int64 // quantized, charged footprint

	// Query's scratch, used under mu and zero between queries: acc holds
	// one score per slot, touched the slots the current query scored.
	acc     []float64
	touched []int32
}

// posting is one document's entry in a term's posting list.
type posting struct {
	slot int32
	tf   float64
}

// doc is one indexed result document.
type doc struct {
	res     core.Result
	terms   []string // normalized terms, one per posting the doc holds
	norm    float64  // vector norm for cosine normalization
	size    int64    // quantized charged size
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
		slots:    make(map[string]int32),
		postings: make(map[string][]posting),
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
		x.removeLocked(x.docs[x.order[0]].res.URL, free)
	}
	if charge != nil {
		if err := charge(size); err != nil {
			return false
		}
	}
	slot := int32(len(x.docs))
	if n := len(x.freeSlots); n > 0 {
		slot = x.freeSlots[n-1]
		x.freeSlots = x.freeSlots[:n-1]
	} else {
		x.docs = append(x.docs, doc{})
		x.acc = append(x.acc, 0)
	}
	terms := make([]string, 0, len(tf))
	for t, f := range tf {
		terms = append(terms, t)
		x.postings[t] = append(x.postings[t], posting{slot, f})
	}
	x.docs[slot] = doc{
		res:     core.Result{URL: r.URL, Title: r.Title, Snippet: r.Snippet},
		terms:   terms,
		norm:    math.Sqrt(norm),
		size:    size,
		expires: expires,
	}
	x.slots[r.URL] = slot
	// order stays sorted by expiry: a live insert lands at the back, a
	// merged document (foreign expiry) where its expiry falls.
	at := sort.Search(len(x.order), func(i int) bool { return x.docs[x.order[i]].expires.After(expires) })
	x.order = slices.Insert(x.order, at, slot)
	x.bytes += size
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
	n := len(x.slots)
	if n < minMatchingDocs {
		return nil, false
	}
	defer func() { // runs before the unlock: the scratch is zero between queries
		for _, s := range x.touched {
			x.acc[s] = 0
		}
		x.touched = x.touched[:0]
	}()
	// Per document the weights are summed in query-term order, so a score
	// is the same float whatever order its postings are in.
	for _, t := range terms {
		posts, present := x.postings[t]
		if !present {
			continue
		}
		w := math.Log(1 + float64(n)/float64(len(posts)+1))
		for _, p := range posts {
			// Every weight is positive (tf >= 1, and df <= n keeps w >=
			// log 1.5), so a zero accumulator means a first touch.
			if x.acc[p.slot] == 0 {
				x.touched = append(x.touched, p.slot)
			}
			x.acc[p.slot] += p.tf * w * w
		}
	}
	if len(x.touched) < minMatchingDocs {
		return nil, false
	}
	for _, s := range x.touched {
		x.acc[s] /= x.docs[s].norm
	}
	slices.SortFunc(x.touched, func(a, b int32) int {
		if sa, sb := x.acc[a], x.acc[b]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return strings.Compare(x.docs[a].res.URL, x.docs[b].res.URL)
	})
	if x.acc[x.touched[0]] < x.minScore {
		return nil, false
	}
	results = make([]core.Result, min(k, len(x.touched)))
	for i := range results {
		results[i] = x.docs[x.touched[i]].res
	}
	return results, true
}

// SnapshotDoc is one document of a Snapshot. Term vectors are not
// carried: they are deterministic from the payload and rebuilt on merge.
type SnapshotDoc struct {
	URL     string `json:"url"`
	Title   string `json:"title"`
	Snippet string `json:"snippet"`
	Expires int64  `json:"expires"` // UnixNano; absolute so TTLs survive the handoff
}

// Snapshot is the index contents in expiry order: the index section of the
// enclave's sealed state. The caller encodes and seals it before it
// crosses the enclave boundary; the host moves opaque bytes only.
type Snapshot []SnapshotDoc

// Snapshot copies the index contents, expiry order preserved.
func (x *Index) Snapshot() Snapshot {
	x.mu.Lock()
	defer x.mu.Unlock()
	snap := make(Snapshot, 0, len(x.order))
	for _, slot := range x.order {
		d := &x.docs[slot]
		snap = append(snap, SnapshotDoc{
			URL:     d.res.URL,
			Title:   d.res.Title,
			Snippet: d.res.Snippet,
			Expires: d.expires.UnixNano(),
		})
	}
	return snap
}

// Merge adds a snapshot from another index (the sealed drain/handoff
// path): every still-fresh document not already present is inserted with
// its original expiry, at its place in the expiry order, and charged
// through charge under the lock exactly like a live insert — so the EPC
// invariant holds at every step of the merge, and a charge failure skips
// the document rather than corrupting the meter. Documents already present
// keep the local version. Returns how many were added and the bytes charged.
func (x *Index) Merge(snap Snapshot, now time.Time, charge func(int64) error, free func(int64)) (added int, bytes int64) {
	// Normalise what is still fresh before taking the lock.
	fresh := make([]core.Result, 0, len(snap))
	expiries := make([]time.Time, 0, len(snap))
	for _, sd := range snap {
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
		if _, present := x.slots[r.URL]; present {
			continue
		}
		if x.insertLocked(r, tfs[i], expiries[i], charge, free) {
			added++
		}
	}
	return added, x.bytes - before
}

// Docs returns the number of indexed documents.
func (x *Index) Docs() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.slots)
}

// Bytes returns the charged (quantized) footprint.
func (x *Index) Bytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.bytes
}

// removeLocked unlinks url from the slot table, every posting list, the
// expiry order, and the byte meter, releasing its quantized size through
// free (may be nil) and its slot for reuse. Caller holds x.mu.
func (x *Index) removeLocked(url string, free func(int64)) {
	slot, present := x.slots[url]
	if !present {
		return
	}
	d := &x.docs[slot]
	delete(x.slots, url)
	x.bytes -= d.size
	for _, t := range d.terms {
		if posts := slices.DeleteFunc(x.postings[t], func(p posting) bool { return p.slot == slot }); len(posts) > 0 {
			x.postings[t] = posts
		} else {
			delete(x.postings, t)
		}
	}
	i := slices.Index(x.order, slot)
	x.order = slices.Delete(x.order, i, i+1)
	if free != nil {
		free(d.size)
	}
	*d = doc{}
	x.freeSlots = append(x.freeSlots, slot)
}

// purgeExpiredLocked drops stale documents, releasing bytes through
// free. Caller holds x.mu. The order is sorted by expiry (insertLocked
// keeps it so, merged documents included), so stopping at the first
// fresh document keeps the purge O(expired) and leaves nothing stale.
func (x *Index) purgeExpiredLocked(now time.Time, free func(int64)) {
	for len(x.order) > 0 {
		d := &x.docs[x.order[0]]
		if !now.After(d.expires) {
			return
		}
		x.removeLocked(d.res.URL, free)
	}
}
