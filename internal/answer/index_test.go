package answer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/raceflag"
	"xsearch/internal/searchengine"
)

// meter is a test EPC stand-in: charge/free move a balance the way
// env.Alloc/env.Free move the enclave heap, with an optional hard limit.
type meter struct {
	mu    sync.Mutex
	used  int64
	limit int64
}

func (m *meter) charge(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.limit > 0 && m.used+n > m.limit {
		return fmt.Errorf("meter: over limit")
	}
	m.used += n
	return nil
}

func (m *meter) free(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.used -= n
}

func (m *meter) balance() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

func rdoc(url, title, snippet string) core.Result {
	return core.Result{URL: url, Title: title, Snippet: snippet}
}

func requireBalanced(t *testing.T, step string, x *Index, m *meter) {
	t.Helper()
	if got, want := m.balance(), x.Bytes(); got != want {
		t.Fatalf("%s: meter %d != index bytes %d", step, got, want)
	}
}

func TestIndexInsertAndQuery(t *testing.T) {
	x, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{}
	now := time.Now()
	docs := []core.Result{
		rdoc("http://a", "chicken recipe oven", "roast chicken recipes with herbs and lemon"),
		rdoc("http://b", "chicken soup", "slow cooked chicken soup with noodles"),
		rdoc("http://c", "bicycle repair", "fixing a flat tire on a road bicycle"),
	}
	if n := x.Insert(docs, now, m.charge, m.free); n != 3 {
		t.Fatalf("Insert stored %d, want 3", n)
	}
	requireBalanced(t, "after insert", x, m)

	// Exact-vocabulary repeat hits, ranked with the chicken docs first.
	res, ok := x.Query("chicken recipe", 10, now, m.free)
	if !ok || len(res) == 0 {
		t.Fatalf("Query miss on repeat vocabulary (ok=%t, %d results)", ok, len(res))
	}
	if res[0].URL != "http://a" {
		t.Fatalf("top result %q, want the recipe doc", res[0].URL)
	}

	// A rephrased near-repeat (different word order, new inflection)
	// still hits: the normalization pipeline stems both sides.
	if _, ok := x.Query("oven chicken recipes", 10, now, m.free); !ok {
		t.Fatal("rephrased query missed")
	}

	// Unrelated vocabulary falls through.
	if _, ok := x.Query("quantum chromodynamics", 10, now, m.free); ok {
		t.Fatal("unrelated query hit the index")
	}
	requireBalanced(t, "after queries", x, m)
}

func TestIndexConfidenceFloor(t *testing.T) {
	// A high score floor rejects weak matches even when terms overlap.
	x, err := New(1<<20, time.Minute, 100)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{}
	now := time.Now()
	x.Insert([]core.Result{
		rdoc("http://a", "chicken recipe", "roast chicken"),
		rdoc("http://b", "chicken soup", "chicken noodles"),
	}, now, m.charge, m.free)
	if _, ok := x.Query("chicken", 10, now, m.free); ok {
		t.Fatal("query beat an unreachable score floor")
	}

	// Fewer than minMatchingDocs matching documents is a miss even with
	// a trivially low floor.
	y, err := New(1<<20, time.Minute, 1e-9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	y.Insert([]core.Result{
		rdoc("http://a", "chicken recipe", "roast chicken"),
		rdoc("http://b", "bicycle repair", "flat tire"),
	}, now, m.charge, m.free)
	if _, ok := y.Query("chicken", 10, now, m.free); ok {
		t.Fatalf("query answered from %d matching doc(s), floor is %d", 1, minMatchingDocs)
	}
}

func TestIndexQuantizedCharges(t *testing.T) {
	x, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var charges []int64
	charge := func(n int64) error { charges = append(charges, n); return nil }
	now := time.Now()
	x.Insert([]core.Result{
		rdoc("http://a", "x", "tiny"),
		rdoc("http://b", "substantially longer title text here", "and a much longer snippet body with many distinct informative terms scattered throughout the text"),
	}, now, charge, nil)
	if len(charges) == 0 {
		t.Fatal("no charges recorded")
	}
	for i, c := range charges {
		if c%arenaQuantum != 0 {
			t.Fatalf("charge %d = %d is not arena-quantized (quantum %d)", i, c, arenaQuantum)
		}
	}
	r := rdoc("http://a", "x", "tiny")
	if s := docSize(r, docVectors([]core.Result{r})[0]); s%arenaQuantum != 0 || s != charges[0] {
		t.Fatalf("docSize %d: not quantized, or not the %d charged for the same document", s, charges[0])
	}
}

func TestIndexEvictionAndTTL(t *testing.T) {
	x, err := New(3*arenaQuantum, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{}
	now := time.Now()
	for i := 0; i < 10; i++ {
		x.Insert([]core.Result{
			rdoc(fmt.Sprintf("http://d%d", i), "chicken recipe", fmt.Sprintf("roast chicken variant %d", i)),
		}, now.Add(time.Duration(i)*time.Millisecond), m.charge, m.free)
		requireBalanced(t, fmt.Sprintf("insert %d", i), x, m)
		if x.Bytes() > x.maxBytes {
			t.Fatalf("insert %d: bytes %d over bound %d", i, x.Bytes(), x.maxBytes)
		}
	}
	if x.Docs() == 0 || x.Docs() >= 10 {
		t.Fatalf("FIFO eviction kept %d docs", x.Docs())
	}

	// Replacing a live URL frees the old charge exactly once.
	last := fmt.Sprintf("http://d%d", 9)
	x.Insert([]core.Result{rdoc(last, "chicken recipe updated", "an updated roast chicken snippet")},
		now.Add(20*time.Millisecond), m.charge, m.free)
	requireBalanced(t, "after replace", x, m)

	// Everything expires; an empty insert an hour on purges it and
	// releases every byte.
	x.Insert(nil, now.Add(time.Hour), nil, m.free)
	if x.Docs() != 0 || x.Bytes() != 0 {
		t.Fatalf("after TTL purge: %d docs, %d bytes", x.Docs(), x.Bytes())
	}
	requireBalanced(t, "after purge", x, m)
	if m.balance() != 0 {
		t.Fatalf("meter left at %d after full purge", m.balance())
	}
}

func TestIndexChargeFailureSkipsDoc(t *testing.T) {
	x, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{limit: arenaQuantum} // one small doc fits, the second charge fails
	now := time.Now()
	n := x.Insert([]core.Result{
		rdoc("http://a", "alpha", "small"),
		rdoc("http://b", "beta", "small too"),
	}, now, m.charge, m.free)
	if n != 1 {
		t.Fatalf("stored %d docs against a one-arena meter, want 1", n)
	}
	requireBalanced(t, "after failed charge", x, m)
}

func TestIndexSnapshotMerge(t *testing.T) {
	now := time.Now()
	src, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sm := &meter{}
	src.Insert([]core.Result{
		rdoc("http://a", "chicken recipe oven", "roast chicken recipes with herbs"),
		rdoc("http://b", "bicycle repair", "fixing a flat tire"),
	}, now, sm.charge, sm.free)

	snap := src.Snapshot()

	dst, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dm := &meter{}
	// The destination already holds one of the URLs; merge must not
	// duplicate it.
	dst.Insert([]core.Result{rdoc("http://a", "chicken recipe oven", "a fresher local copy")},
		now, dm.charge, dm.free)
	added, bytes := dst.Merge(snap, now, dm.charge, dm.free)
	if added != 1 {
		t.Fatalf("Merge added %d docs, want 1 (dedup by URL)", added)
	}
	if bytes <= 0 {
		t.Fatalf("Merge reported %d bytes", bytes)
	}
	requireBalanced(t, "after merge", dst, dm)
	// The query spans both docs' vocabulary so the matching-docs floor
	// holds; the merged doc must be retrievable.
	res, ok := dst.Query("bicycle tire chicken recipe", 10, now, dm.free)
	if !ok {
		t.Fatal("merged document not queryable")
	}
	found := false
	for _, r := range res {
		if r.URL == "http://b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged doc missing from results: %+v", res)
	}

	// Expired snapshot docs are dropped on merge.
	late, err := New(1<<20, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lm := &meter{}
	if added, _ = late.Merge(snap, now.Add(time.Hour), lm.charge, lm.free); added != 0 {
		t.Fatalf("stale merge added %d docs, want 0", added)
	}
	requireBalanced(t, "after stale merge", late, lm)
}

// TestIndexMergedExpiredNeverServed: a merged document keeps its foreign
// expiry, which may fall before those of the local documents already held.
// Once it passes, the document must be gone — never served, its bytes
// freed — even though it arrived after fresh local documents.
func TestIndexMergedExpiredNeverServed(t *testing.T) {
	now := time.Now()
	src, err := New(1<<20, time.Minute, 1e-9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src.Insert([]core.Result{rdoc("http://old", "chicken recipe", "roast chicken with herbs")},
		now.Add(-55*time.Second), nil, nil) // expires at now+5s

	dst, err := New(1<<20, time.Minute, 1e-9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{}
	dst.Insert([]core.Result{
		rdoc("http://fresh1", "chicken recipe oven", "oven baked chicken"),
		rdoc("http://fresh2", "chicken soup", "chicken noodle soup"),
	}, now, m.charge, m.free) // expire at now+60s
	local := dst.Bytes()
	if added, _ := dst.Merge(src.Snapshot(), now, m.charge, m.free); added != 1 {
		t.Fatalf("Merge added %d docs, want 1", added)
	}

	later := now.Add(10 * time.Second)
	res, ok := dst.Query("chicken recipe", 10, later, m.free)
	if !ok {
		t.Fatal("fresh local documents not served")
	}
	for _, r := range res {
		if r.URL == "http://old" {
			t.Fatalf("served a merged document 5s past its expiry: %+v", res)
		}
	}
	if dst.Docs() != 2 || dst.Bytes() != local {
		t.Fatalf("after its expiry the merged doc is still held: %d docs, %d bytes (local %d)",
			dst.Docs(), dst.Bytes(), local)
	}
	requireBalanced(t, "after expiry", dst, m)
}

// TestIndexQueryAllocBudget: a warm query the index answers allocates its
// query terms (three for this one: textutil.UniqueTerms' slice, term
// strings and sort order) and its result slice — no score map, nothing per
// matching document.
func TestIndexQueryAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	const budget = 4
	corpus := searchengine.GenerateCorpus(searchengine.CorpusConfig{DocsPerTopic: 40, Seed: 1})
	results := make([]core.Result, len(corpus))
	for i, d := range corpus {
		results[i] = core.Result{URL: d.URL, Title: d.Title, Snippet: d.Snippet}
	}
	x, err := New(64<<20, time.Hour, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	now := time.Now()
	x.Insert(results, now, nil, nil)
	q := corpus[0].Title
	res, ok := x.Query(q, 20, now, nil)
	if !ok || len(res) != 20 {
		t.Fatalf("Query(%q) over %d docs: ok=%t, %d results; the gate needs an answered query", q, x.Docs(), ok, len(res))
	}
	got := testing.AllocsPerRun(200, func() { x.Query(q, 20, now, nil) })
	if got > budget {
		t.Errorf("warm Query(%q): %v allocations, budget %d", q, got, budget)
	}
	t.Logf("warm Query allocs: %v over %d docs", got, x.Docs())
}

// TestIndexChurnRace hammers one index from concurrent inserters,
// queriers, and expirers (run under -race): byte accounting must stay
// exact against the shared meter at every quiescent point, and the byte
// bound must never be breached.
func TestIndexChurnRace(t *testing.T) {
	x, err := New(64*arenaQuantum, 5*time.Millisecond, 1e-9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &meter{}
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				x.Insert([]core.Result{
					rdoc(fmt.Sprintf("http://w%d/%d", w, i%50),
						fmt.Sprintf("chicken recipe %d", i%7),
						fmt.Sprintf("roast chicken worker %d iteration %d", w, i)),
				}, time.Now(), m.charge, m.free)
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				x.Query("chicken recipe roast", 5, time.Now(), m.free)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			x.Insert(nil, time.Now(), nil, m.free) // purges what is stale
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	requireBalanced(t, "after churn", x, m)
	if x.Bytes() > x.maxBytes {
		t.Fatalf("byte bound breached: %d > %d", x.Bytes(), x.maxBytes)
	}
	x.Insert(nil, time.Now().Add(time.Hour), nil, m.free)
	if m.balance() != 0 {
		t.Fatalf("meter left at %d after draining the index", m.balance())
	}
}

func TestIndexConfigValidation(t *testing.T) {
	if _, err := New(0, time.Minute, 0); err == nil {
		t.Fatal("zero maxBytes accepted")
	}
	if _, err := New(1024, 0, 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	x, err := New(1024, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if x.minScore != DefaultMinScore {
		t.Fatalf("default min score %g, want %g", x.minScore, DefaultMinScore)
	}
}
