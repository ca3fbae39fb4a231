package core

import (
	"fmt"
	"sync"
	"time"
)

// Byte-accounting overheads for the result cache, in the spirit of
// perQueryOverhead: the cache lives in (simulated) EPC, so every entry's
// footprint — map slot, key string, slice headers, per-result bookkeeping —
// must be charged against the enclave heap like the history window is.
const (
	// cacheEntryOverhead approximates the fixed cost of one cached entry
	// (map bucket share, key header, entry struct, expiry timestamp).
	cacheEntryOverhead = 96
	// cacheResultOverhead approximates the per-result cost beyond the
	// string payloads (three string headers plus allocator slack).
	cacheResultOverhead = 48
)

// ResultCache is the in-enclave obfuscated-result cache: filtered result
// lists keyed by the ORIGINAL query (the obfuscated query differs on every
// request by construction, so it would never hit). It is bounded both by
// total bytes and by a per-entry TTL, and evicts FIFO by insertion order
// when over the byte bound. Safe for concurrent use.
//
// EPC contract: every mutation takes charge/free callbacks (env.Alloc and
// env.Free in the enclave) and invokes them UNDER the cache lock, so the
// EPC meter moves atomically with the entry it accounts for. An entry is
// inserted only if its charge succeeds, and each entry's bytes are freed
// exactly once, when it leaves the cache — concurrent requests can never
// free bytes that were not charged or strand bytes that were. Either
// callback may be nil (skipped: charge treated as success).
//
// The cache never stores plaintext the untrusted host could not already
// derive: it lives entirely inside the trusted boundary, exactly like the
// query history.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	ttl      time.Duration
	entries  map[string]*cacheEntry
	order    []string // insertion order, oldest first (FIFO eviction)
	bytes    int64
}

type cacheEntry struct {
	results []Result
	size    int64
	expires time.Time
}

// NewResultCache creates a cache bounded to maxBytes total footprint with
// the given per-entry TTL. Both bounds must be positive: an unbounded
// cache would silently eat the EPC, and TTL-less entries would serve
// stale results forever.
func NewResultCache(maxBytes int64, ttl time.Duration) (*ResultCache, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("core: cache maxBytes must be positive, got %d", maxBytes)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("core: cache ttl must be positive, got %v", ttl)
	}
	return &ResultCache{
		maxBytes: maxBytes,
		ttl:      ttl,
		entries:  make(map[string]*cacheEntry),
	}, nil
}

// EntrySize returns the bytes one entry would be charged for: the key, the
// result payloads, and the fixed overheads.
func EntrySize(key string, results []Result) int64 {
	size := int64(cacheEntryOverhead) + int64(len(key))
	for _, r := range results {
		size += cacheResultOverhead + int64(len(r.URL)) + int64(len(r.Title)) + int64(len(r.Snippet))
	}
	return size
}

// Get returns the cached results for key if present and fresh at time now.
// An expired entry is removed lazily, its bytes released through free
// under the lock. The returned slice is a copy — cached entries must stay
// immutable while callers post-process their results.
func (c *ResultCache) Get(key string, now time.Time, free func(int64)) (results []Result, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, present := c.entries[key]
	if !present {
		return nil, false
	}
	if now.After(e.expires) {
		c.removeLocked(key, free)
		return nil, false
	}
	out := make([]Result, len(e.results))
	copy(out, e.results)
	return out, true
}

// Put inserts (or replaces) the results for key, evicting expired entries
// and then the oldest entries (FIFO) until the byte bound holds. Evicted
// bytes are released through free and the new entry's size is charged
// through charge, both under the lock; if charge fails (EPC exhausted)
// the entry is simply not stored. An entry that alone exceeds the byte
// bound is likewise not stored. Returns whether the entry was stored.
func (c *ResultCache) Put(key string, results []Result, now time.Time, charge func(int64) error, free func(int64)) bool {
	size := EntrySize(key, results)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key, free)
	c.purgeExpiredLocked(now, free)
	if size > c.maxBytes {
		return false
	}
	for c.bytes+size > c.maxBytes && len(c.order) > 0 {
		c.removeLocked(c.order[0], free)
	}
	if charge != nil {
		if err := charge(size); err != nil {
			return false
		}
	}
	stored := make([]Result, len(results))
	copy(stored, results)
	c.entries[key] = &cacheEntry{results: stored, size: size, expires: now.Add(c.ttl)}
	c.order = append(c.order, key)
	c.bytes += size
	return true
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the accounted footprint of all cached entries.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// removeLocked unlinks key from the map, the FIFO order, and the byte
// meter, releasing its size through free (may be nil). Caller holds c.mu.
func (c *ResultCache) removeLocked(key string, free func(int64)) {
	e, present := c.entries[key]
	if !present {
		return
	}
	delete(c.entries, key)
	c.bytes -= e.size
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	if free != nil {
		free(e.size)
	}
}

// purgeExpiredLocked drops stale entries, releasing their bytes through
// free. Caller holds c.mu.
func (c *ResultCache) purgeExpiredLocked(now time.Time, free func(int64)) {
	// Entries only ever enter at the back of the order (Put removes any
	// old entry for the key first), and all share one TTL — with
	// monotonic insertion times the order is expiry-sorted, so stopping
	// at the first fresh entry keeps a Put on the miss path O(expired)
	// instead of O(entries). Anything a non-monotonic clock hides behind
	// a fresh entry is still collected lazily by Get or a later purge.
	for len(c.order) > 0 {
		key := c.order[0]
		if e := c.entries[key]; !now.After(e.expires) {
			return
		}
		c.removeLocked(key, free)
	}
}
