package proxy

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xsearch/internal/core"
	"xsearch/internal/enclave"
)

// Tests for the one sealed-state blob: a merge is all or nothing, a blob
// merges once, and the persisted blob carries the index as well as the
// history.

// echoOn builds an echo-mode proxy with the given window on platform.
func echoOn(t *testing.T, platform *enclave.Platform, capacity int) *Proxy {
	t.Helper()
	p, err := New(Config{K: 1, Seed: 1, EchoMode: true, HistoryCapacity: capacity, Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Crash)
	return p
}

// fill serves n distinct queries and returns them in order.
func fill(t *testing.T, p *Proxy, prefix string, n int) []string {
	t.Helper()
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("%s query %04d", prefix, i)
		plainSearch(t, p, queries[i])
	}
	return queries
}

// The host may replay a blob, and race the replays: exactly one merge of
// it is accepted, and the refused ones move nothing.
func TestMergeStateRefusesReplay(t *testing.T) {
	platform := enclave.NewPlatform()
	src, dst := echoOn(t, platform, 0), echoOn(t, platform, 0)
	fill(t, src, "drained", 40)
	fill(t, dst, "own", 25)
	ctx := context.Background()
	blob, err := src.SnapshotState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const replays = 4
	var accepted atomic.Int32
	var wg sync.WaitGroup
	for range replays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := dst.MergeState(ctx, blob)
			switch {
			case err == nil:
				accepted.Add(1)
				if rep.Queries != 40 || rep.HistoryBytes <= 0 {
					t.Errorf("accepted merge reported %+v, want 40 queries", rep)
				}
			case !strings.Contains(err.Error(), "already merged"):
				t.Errorf("replayed merge err = %v, want a replay refusal", err)
			}
		}()
	}
	wg.Wait()
	if n := accepted.Load(); n != 1 {
		t.Fatalf("%d of %d merges of one blob were accepted, want 1", n, replays)
	}
	if n := dst.Stats().HistoryLen; n != 65 {
		t.Fatalf("history after the merges = %d, want 65 (25 own + 40 once)", n)
	}
	assertEPCInvariant(t, dst)

	heap := dst.Stats().Enclave.HeapBytes
	if _, err := dst.MergeState(ctx, blob); err == nil {
		t.Fatal("a later replay was accepted")
	}
	if s := dst.Stats(); s.HistoryLen != 65 || s.Enclave.HeapBytes != heap {
		t.Errorf("replay moved the state: history %d (want 65), heap %d (want %d)", s.HistoryLen, s.Enclave.HeapBytes, heap)
	}
	assertEPCInvariant(t, dst)

	// A fresh snapshot of the same window is a new blob and merges.
	if blob, err = src.SnapshotState(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MergeState(ctx, blob); err != nil {
		t.Errorf("a fresh snapshot was refused: %v", err)
	}
}

// A window larger than the receiver's capacity is trimmed to its newest
// Capacity() queries before the charge: the receiver holds exactly those
// and is charged exactly their cost.
func TestMergeStateOverCapacityChargesTheNewest(t *testing.T) {
	platform := enclave.NewPlatform()
	src, dst := echoOn(t, platform, 4000), echoOn(t, platform, 1000)
	queries := fill(t, src, "overfull", 4000)
	ctx := context.Background()
	blob, err := src.SnapshotState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	heap := dst.Stats().Enclave.HeapBytes
	rep, err := dst.MergeState(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	newest := queries[3000:]
	cost := core.HistoryCost(newest)
	if got := dst.trusted.obfuscator.History().Snapshot(); !reflect.DeepEqual(got, newest) {
		t.Fatalf("window holds %d queries, not the newest 1000 in order", len(got))
	}
	s := dst.Stats()
	if rep.Queries != 1000 || rep.HistoryBytes != cost || s.HistoryB != cost || s.Enclave.HeapBytes-heap != cost {
		t.Errorf("merge %+v, history %d B, heap +%d B; want 1000 queries charged %d B",
			rep, s.HistoryB, s.Enclave.HeapBytes-heap, cost)
	}
	assertEPCInvariant(t, dst)
}

// A blob that unseals but does not decode is refused before anything is
// charged.
func TestMergeStateRefusesMalformedPlaintext(t *testing.T) {
	p := echoOn(t, enclave.NewPlatform(), 0)
	fill(t, p, "kept", 10)
	blob, err := p.trusted.sealer.Seal([]byte("not json"), stateAAD)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	if _, err := p.MergeState(context.Background(), blob); err == nil || !strings.Contains(err.Error(), "state payload") {
		t.Fatalf("malformed state err = %v, want a payload refusal", err)
	}
	after := p.Stats()
	if after.HistoryLen != before.HistoryLen || after.Enclave.HeapBytes != before.Enclave.HeapBytes {
		t.Errorf("refused merge moved the state: history %d -> %d, heap %d -> %d",
			before.HistoryLen, after.HistoryLen, before.Enclave.HeapBytes, after.Enclave.HeapBytes)
	}
	assertEPCInvariant(t, p)
}

// The persisted blob is the one a drain moves, so a restarted proxy with
// the answer index on gets its still-fresh documents back.
func TestPersistedStateCarriesIndex(t *testing.T) {
	_, srv := newDelayEngine(t, 0)
	statePath := filepath.Join(t.TempDir(), "state.sealed")
	cfg := Config{K: 1, Seed: 1, Engines: []EngineSpec{{Host: srv.Addr()}},
		IndexBytes: 1 << 20, IndexTTL: time.Hour,
		StatePath: statePath, PlatformSeed: []byte("same-machine")}
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"chicken recipe oven baking", "mortgage refinance loan rates"} {
		plainSearch(t, p1, q)
	}
	want := p1.Stats()
	if want.IndexDocs == 0 {
		t.Fatal("the index stored nothing; the test would carry an empty section")
	}
	shutdown(t, p1)

	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Crash()
	got := p2.Stats()
	if got.IndexDocs != want.IndexDocs || got.HistoryLen != want.HistoryLen {
		t.Errorf("restart restored %d docs and %d queries, want %d and %d",
			got.IndexDocs, got.HistoryLen, want.IndexDocs, want.HistoryLen)
	}
	assertEPCInvariant(t, p2)
}
