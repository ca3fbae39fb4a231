package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Table-driven coverage of the history's EPC byte accounting: the deltas
// Add reports are what the enclave charges (positive) or releases
// (negative), so their signs and magnitudes are load-bearing, not
// cosmetic.
func TestHistoryAddDeltaTable(t *testing.T) {
	const ov = perQueryOverhead
	tests := []struct {
		name       string
		capacity   int
		adds       []string
		wantDeltas []int64
		wantBytes  int64
	}{
		{
			name:       "growth only",
			capacity:   4,
			adds:       []string{"aa", "bbbb"},
			wantDeltas: []int64{2 + ov, 4 + ov},
			wantBytes:  6 + 2*ov,
		},
		{
			name:       "eviction of equal size is delta zero",
			capacity:   1,
			adds:       []string{"aaaa", "bbbb"},
			wantDeltas: []int64{4 + ov, 0},
			wantBytes:  4 + ov,
		},
		{
			name:     "eviction of longer query is negative delta",
			capacity: 1,
			adds:     []string{"a long past query", "q"},
			wantDeltas: []int64{
				17 + ov,
				1 - 17, // overheads cancel; the EPC shrinks
			},
			wantBytes: 1 + ov,
		},
		{
			name:       "eviction of shorter query is positive delta",
			capacity:   1,
			adds:       []string{"q", "a longer query"},
			wantDeltas: []int64{1 + ov, 14 - 1},
			wantBytes:  14 + ov,
		},
		{
			name:       "empty query still costs its overhead",
			capacity:   2,
			adds:       []string{""},
			wantDeltas: []int64{ov},
			wantBytes:  ov,
		},
		{
			name:       "wrap twice",
			capacity:   2,
			adds:       []string{"aa", "bb", "cccc", "d"},
			wantDeltas: []int64{2 + ov, 2 + ov, 4 - 2, 1 - 2},
			wantBytes:  5 + 2*ov,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := mustHistory(t, tt.capacity)
			var sum int64
			for i, q := range tt.adds {
				got := h.Add(q)
				if got != tt.wantDeltas[i] {
					t.Errorf("Add(%q) delta = %d, want %d", q, got, tt.wantDeltas[i])
				}
				sum += got
			}
			if h.Bytes() != tt.wantBytes {
				t.Errorf("Bytes = %d, want %d", h.Bytes(), tt.wantBytes)
			}
			// The deltas the EPC saw must sum to the live footprint.
			if sum != h.Bytes() {
				t.Errorf("delta sum %d != Bytes %d", sum, h.Bytes())
			}
		})
	}
}

func TestHistorySnapshotRestoreRoundTripTable(t *testing.T) {
	const ov = perQueryOverhead
	tests := []struct {
		name      string
		capacity  int
		add       []string
		wantSnap  []string
		wantBytes int64
	}{
		{
			name:      "fits exactly",
			capacity:  3,
			add:       []string{"a", "bb", "ccc"},
			wantSnap:  []string{"a", "bb", "ccc"},
			wantBytes: 6 + 3*ov,
		},
		{
			name:      "underfull",
			capacity:  5,
			add:       []string{"a", "bb"},
			wantSnap:  []string{"a", "bb"},
			wantBytes: 3 + 2*ov,
		},
		{
			name:      "overfull keeps the most recent",
			capacity:  2,
			add:       []string{"old", "mid", "newest"},
			wantSnap:  []string{"mid", "newest"},
			wantBytes: 9 + 2*ov,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := mustHistory(t, tt.capacity)
			var gotBytes int64
			for _, q := range tt.add {
				gotBytes += h.Add(q)
			}
			if gotBytes != tt.wantBytes || h.Bytes() != tt.wantBytes {
				t.Errorf("Add deltas sum to %d, Bytes = %d, want %d", gotBytes, h.Bytes(), tt.wantBytes)
			}
			if got := h.Snapshot(); !reflect.DeepEqual(got, tt.wantSnap) {
				t.Errorf("Snapshot = %v, want %v", got, tt.wantSnap)
			}
			// Round trip: adding a snapshot to an empty window reproduces it.
			h2 := mustHistory(t, tt.capacity)
			for _, q := range h.Snapshot() {
				h2.Add(q)
			}
			if !reflect.DeepEqual(h2.Snapshot(), h.Snapshot()) {
				t.Errorf("round trip diverged: %v vs %v", h2.Snapshot(), h.Snapshot())
			}
			if h2.Bytes() != h.Bytes() {
				t.Errorf("round trip bytes %d != %d", h2.Bytes(), h.Bytes())
			}
		})
	}
}

// Concurrent Add/Snapshot/Sample must never race (run with -race)
// and must leave the byte meter equal to the stored contents.
func TestHistoryConcurrentAddSnapshotRestore(t *testing.T) {
	h := mustHistory(t, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				h.Add(fmt.Sprintf("writer %d query %d", w, i))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap := h.Snapshot()
				_ = h.Len()
				_ = h.Bytes()
				_ = len(snap)
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h.Sample(3, func(n int) int { return (w + i) % n })
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for _, q := range h.Snapshot() {
		want += int64(len(q)) + perQueryOverhead
	}
	if h.Bytes() != want {
		t.Errorf("Bytes = %d, contents sum to %d", h.Bytes(), want)
	}
	if h.Len() > h.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", h.Len(), h.Capacity())
	}
}
