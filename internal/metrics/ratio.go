package metrics

import "sync/atomic"

// RatioCounter tracks a hit/miss pair; readers take the ratio from
// Counts. It backs the proxy's operational gauges (engine-connection
// reuse ratio, result-cache hit ratio) and is safe for concurrent use from
// enclave worker threads: both counters are independent atomics, so a
// snapshot may be off by one event under contention but never corrupt.
type RatioCounter struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Hit records one hit (a reused connection, a cache hit).
func (r *RatioCounter) Hit() { r.hits.Add(1) }

// Miss records one miss (a fresh dial, a cache miss).
func (r *RatioCounter) Miss() { r.misses.Add(1) }

// Counts returns the raw (hits, misses) pair.
func (r *RatioCounter) Counts() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}
