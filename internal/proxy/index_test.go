package proxy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for the in-enclave answer tier wired through the proxy: probe
// order (cache → index → upstream), rephrased-query hits on the sync and
// async paths, and the extended EPC invariant (heap == history + cache +
// index) under concurrent churn.

func TestIndexServesRephrasedQueries(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.IndexBytes = 1 << 20 })
	first := plainSearch(t, st.proxy, "chicken recipe oven baking")
	if len(first) == 0 {
		t.Fatal("seed query returned no results; nothing to index")
	}
	seen := len(st.engine.QueryLog())
	// Rephrased, not repeated: a different string (so no exact-key cache
	// could serve it) sharing the seed query's terms.
	second := plainSearch(t, st.proxy, "baking oven chicken recipe")
	if got := len(st.engine.QueryLog()); got != seen {
		t.Errorf("engine saw %d queries after rephrase, want %d (index hit)", got, seen)
	}
	if len(second) == 0 {
		t.Error("index hit returned no results")
	}
	s := st.proxy.Stats()
	if s.IndexHits != 1 {
		t.Errorf("index hits = %d, want 1", s.IndexHits)
	}
	if s.IndexDocs == 0 || s.IndexB == 0 {
		t.Errorf("index empty after insert: docs=%d bytes=%d", s.IndexDocs, s.IndexB)
	}
	if s.LocalHitRatio == 0 {
		t.Error("local-hit ratio is zero after an index hit")
	}
	assertEPCInvariant(t, st.proxy)
}

// An exact repeat with both tiers enabled is the cache's to serve: the
// index probe only runs after a cache miss.
func TestIndexProbeOrderCacheFirst(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.CacheBytes = 1 << 20
		c.IndexBytes = 1 << 20
	})
	plainSearch(t, st.proxy, "mortgage refinance rates")
	plainSearch(t, st.proxy, "mortgage refinance rates")
	s := st.proxy.Stats()
	if s.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (exact repeat)", s.CacheHits)
	}
	if s.IndexHits != 0 {
		t.Errorf("index hits = %d, want 0 (cache answered first)", s.IndexHits)
	}
	// One cache miss (the seed), zero probed queries lost: ratio counts
	// the repeat as a local answer.
	if s.LocalHitRatio != 0.5 {
		t.Errorf("local-hit ratio = %f, want 0.5", s.LocalHitRatio)
	}
	assertEPCInvariant(t, st.proxy)
}

// A probe below the confidence floor must fall through to the upstream
// pipeline rather than serve weak matches.
func TestIndexConfidenceFloorFallsThrough(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.IndexBytes = 1 << 20
		c.IndexMinScore = 1e9 // unreachable floor
	})
	plainSearch(t, st.proxy, "chicken recipe oven baking")
	seen := len(st.engine.QueryLog())
	plainSearch(t, st.proxy, "baking oven chicken recipe")
	if got := len(st.engine.QueryLog()); got == seen {
		t.Error("sub-floor probe served locally; want upstream fall-through")
	}
	s := st.proxy.Stats()
	if s.IndexHits != 0 {
		t.Errorf("index hits = %d, want 0 under an unreachable floor", s.IndexHits)
	}
	assertEPCInvariant(t, st.proxy)
}

func TestIndexServesRephrasedQueriesAsync(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.IndexBytes = 1 << 20
		c.AsyncOcalls = true
	})
	if _, err := st.proxy.ServeQuery(context.Background(), "flights paris hotel resort"); err != nil {
		t.Fatal(err)
	}
	seen := len(st.engine.QueryLog())
	results, err := st.proxy.ServeQuery(context.Background(), "resort hotel paris flights")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.engine.QueryLog()); got != seen {
		t.Errorf("engine saw %d queries after rephrase, want %d (async index hit)", got, seen)
	}
	if len(results) == 0 {
		t.Error("async index hit returned no results")
	}
	s := st.proxy.Stats()
	if s.IndexHits != 1 {
		t.Errorf("index hits = %d, want 1", s.IndexHits)
	}
	assertEPCInvariant(t, st.proxy)
}

// The satellite churn test: insert/evict/expire under concurrent clients
// with a deliberately tiny index (every insert evicts) and a short TTL
// (expiry interleaves with live probes), sampling the extended EPC
// invariant at every step while traffic is in flight. Run with -race.
func TestIndexChurnInvariantUnderConcurrentSessions(t *testing.T) {
	st := newTestStack(t, func(c *Config) {
		c.CacheBytes = 16 << 10
		c.CacheTTL = 25 * time.Millisecond
		c.IndexBytes = 8 << 10
		c.IndexTTL = 20 * time.Millisecond
	})
	topics := []string{
		"chicken recipe oven", "mortgage loan rates", "playoff scores roster",
		"flights hotel paris", "garden roses compost", "laptop wireless router",
	}
	const workers = 6
	const rounds = 10
	const perRound = 4

	// Each round runs the workers concurrently, then checks the invariant
	// at the quiesce barrier: the gauges in Stats are read independently,
	// so only a barrier gives a consistent snapshot — every round still
	// interleaves inserts, evictions, and TTL expiries under -race, and
	// the invariant must come back exact after each interleaving.
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					// Repeat-heavy mix: mostly topic repeats/rephrases
					// (index and cache churn), some distinct queries
					// (evictions).
					q := topics[(w+i+r)%len(topics)]
					if (w+i)%5 == 0 {
						q = fmt.Sprintf("%s variant %d %d %d", q, w, i, r)
					}
					if _, err := st.proxy.ServeQuery(context.Background(), q); err != nil {
						t.Errorf("worker %d query %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		assertEPCInvariant(t, st.proxy)
		if r%3 == 0 {
			time.Sleep(25 * time.Millisecond) // let TTLs lapse between rounds
		}
	}

	s := st.proxy.Stats()
	if s.IndexB > 8<<10 {
		t.Errorf("index bytes %d exceed the configured bound", s.IndexB)
	}
	assertEPCInvariant(t, st.proxy)
}
