// Package core implements the paper's primary contribution: the X-Search
// query obfuscation mechanism. It contains the bounded sliding-window
// history of past queries kept in enclave memory (§4.1), Algorithm 1
// (obfuscated query generation: the original query OR-aggregated with k
// real past queries at a random position) and Algorithm 2 (result
// filtering by common-word scoring against the original query).
package core

import (
	"encoding/json"
	"fmt"
	"sync"
)

// perQueryOverhead approximates the in-enclave bookkeeping bytes per stored
// query (string header, ring slot, allocator slack). With AOL-like queries
// averaging ~20-25 bytes this puts 1M stored queries comfortably under the
// 90 MB EPC budget — the Figure 6 claim.
const perQueryOverhead = 48

// History is the sliding window of the last x past queries (the paper's H,
// bounded by x to respect EPC limits). It evicts FIFO and accounts its own
// byte footprint. Safe for concurrent use — the proxy shares it between
// worker threads (§4.1: "the query table is kept in memory and shared
// among all threads").
type History struct {
	mu    sync.RWMutex
	ring  []string
	head  int // next write position
	size  int
	bytes int64
}

// QueryCost returns the accounted byte cost of storing q, an upper bound
// on the Add delta of inserting it (an eviction only subtracts). Callers
// that must charge the EPC before mutating the window — so a refused
// charge leaves nothing recorded — pre-charge this bound and refund the
// difference.
func QueryCost(q string) int64 { return int64(len(q)) + perQueryOverhead }

// HistoryCost is QueryCost summed over queries (a sealed-handoff merge
// pre-charges the whole incoming window).
func HistoryCost(queries []string) int64 {
	var n int64
	for _, q := range queries {
		n += QueryCost(q)
	}
	return n
}

// NewHistory creates a history bounded to capacity queries.
func NewHistory(capacity int) (*History, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: history capacity must be positive, got %d", capacity)
	}
	return &History{ring: make([]string, capacity)}, nil
}

// Add inserts q, evicting the oldest query if the window is full. It
// returns the byte-accounting delta (positive for growth, negative or zero
// when an eviction offsets the insert), which the enclave runtime charges
// against the EPC.
func (h *History) Add(q string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var delta int64
	if h.size == len(h.ring) {
		old := h.ring[h.head]
		delta -= int64(len(old)) + perQueryOverhead
	} else {
		h.size++
	}
	h.ring[h.head] = q
	h.head = (h.head + 1) % len(h.ring)
	delta += int64(len(q)) + perQueryOverhead
	h.bytes += delta
	return delta
}

// Len returns the number of stored queries.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.size
}

// Capacity returns the window bound x.
func (h *History) Capacity() int { return len(h.ring) }

// Bytes returns the accounted footprint of the stored queries.
func (h *History) Bytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// At returns the i-th stored query (0 = oldest). It is used by sampling.
func (h *History) at(i int) string {
	// Caller holds at least the read lock.
	if h.size < len(h.ring) {
		return h.ring[i]
	}
	return h.ring[(h.head+i)%len(h.ring)]
}

// Sample returns k queries drawn uniformly at random (with replacement,
// exactly Algorithm 1's H[random(m)]) using the caller-supplied source.
// It returns nil when the history is empty.
func (h *History) Sample(k int, intn func(n int) int) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.size == 0 || k <= 0 {
		return nil
	}
	out := make([]string, k)
	for i := range out {
		out[i] = h.at(intn(h.size))
	}
	return out
}

// Snapshot returns the stored queries oldest-first, for sealing.
func (h *History) Snapshot() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, h.size)
	for i := 0; i < h.size; i++ {
		out[i] = h.at(i)
	}
	return out
}

// Restore replaces the contents with the snapshot (oldest-first), keeping
// at most the most recent Capacity() entries. Returns the new byte size.
func (h *History) Restore(queries []string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.ring {
		h.ring[i] = ""
	}
	h.head, h.size, h.bytes = 0, 0, 0
	start := 0
	if len(queries) > len(h.ring) {
		start = len(queries) - len(h.ring)
	}
	for _, q := range queries[start:] {
		h.ring[h.head] = q
		h.head = (h.head + 1) % len(h.ring)
		h.size++
		h.bytes += int64(len(q)) + perQueryOverhead
	}
	if h.size == len(h.ring) {
		// head already points at the oldest entry.
		h.head %= len(h.ring)
	}
	return h.bytes
}

// MarshalJSON seals-friendly serialization of the window contents.
func (h *History) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Snapshot())
}

// UnmarshalJSON restores from serialized contents.
func (h *History) UnmarshalJSON(data []byte) error {
	var queries []string
	if err := json.Unmarshal(data, &queries); err != nil {
		return fmt.Errorf("core: history restore: %w", err)
	}
	h.Restore(queries)
	return nil
}
