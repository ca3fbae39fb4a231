package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cacheT0 is an arbitrary fixed wall-clock origin: the cache only compares
// instants it was handed, so tests drive time explicitly.
var cacheT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func mustCache(t *testing.T, maxBytes int64, ttl time.Duration) *ResultCache {
	t.Helper()
	c, err := NewResultCache(maxBytes, ttl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cacheResults(n int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{
			URL:     fmt.Sprintf("http://site%d.example/page", i),
			Title:   "result title",
			Snippet: "snippet text for the result",
		}
	}
	return out
}

// epcMirror plays the enclave heap's role: it tallies the charge/free
// callbacks so tests can assert the EPC contract.
type epcMirror struct {
	charged, freed int64
	failCharge     bool
}

func (m *epcMirror) charge(n int64) error {
	if m.failCharge {
		return fmt.Errorf("epc exhausted")
	}
	m.charged += n
	return nil
}
func (m *epcMirror) free(n int64) { m.freed += n }

func TestNewResultCacheValidation(t *testing.T) {
	if _, err := NewResultCache(0, time.Minute); err == nil {
		t.Error("zero maxBytes accepted")
	}
	if _, err := NewResultCache(-1, time.Minute); err == nil {
		t.Error("negative maxBytes accepted")
	}
	if _, err := NewResultCache(1024, 0); err == nil {
		t.Error("zero ttl accepted")
	}
	if _, err := NewResultCache(1024, -time.Second); err == nil {
		t.Error("negative ttl accepted")
	}
}

func TestCachePutGet(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	m := &epcMirror{}
	results := cacheResults(3)
	if !c.Put("q", results, cacheT0, m.charge, m.free) {
		t.Fatal("Put rejected a fitting entry")
	}
	want := EntrySize("q", results)
	if m.charged != want || m.freed != 0 {
		t.Fatalf("mirror = charged %d / freed %d, want %d / 0", m.charged, m.freed, want)
	}
	if c.Len() != 1 || c.Bytes() != want {
		t.Errorf("Len/Bytes = %d/%d", c.Len(), c.Bytes())
	}
	got, ok := c.Get("q", cacheT0.Add(time.Second), m.free)
	if !ok || len(got) != 3 {
		t.Fatalf("Get = (%d results, %t)", len(got), ok)
	}
	if _, ok := c.Get("absent", cacheT0, m.free); ok {
		t.Error("absent key hit")
	}
	if m.freed != 0 {
		t.Errorf("fresh lookups freed %d bytes", m.freed)
	}
}

// Returned slices are copies: a caller mutating its view must not corrupt
// the cached entry other requests will receive.
func TestCacheGetReturnsCopy(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	c.Put("q", cacheResults(2), cacheT0, nil, nil)
	got, _ := c.Get("q", cacheT0, nil)
	got[0].URL = "mutated"
	again, _ := c.Get("q", cacheT0, nil)
	if again[0].URL == "mutated" {
		t.Error("cached entry shares memory with a caller's slice")
	}
}

func TestCachePutReplacesAndFrees(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	m := &epcMirror{}
	small := cacheResults(1)
	big := cacheResults(5)
	c.Put("q", small, cacheT0, m.charge, m.free)
	oldCharged := m.charged
	c.Put("q", big, cacheT0.Add(time.Second), m.charge, m.free)
	if m.freed != oldCharged {
		t.Errorf("replacement freed %d, want the old entry's %d", m.freed, oldCharged)
	}
	if c.Len() != 1 || c.Bytes() != m.charged-m.freed {
		t.Errorf("Len/Bytes = %d/%d, want 1/%d", c.Len(), c.Bytes(), m.charged-m.freed)
	}
}

// A failed charge (EPC exhausted) must leave the cache exactly as if the
// Put never happened: no entry, no stranded bytes.
func TestCachePutChargeFailure(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	m := &epcMirror{failCharge: true}
	if c.Put("q", cacheResults(2), cacheT0, m.charge, m.free) {
		t.Fatal("Put stored an entry whose charge failed")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("failed charge left Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	if _, ok := c.Get("q", cacheT0, nil); ok {
		t.Error("uncharged entry served")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	m := &epcMirror{}
	c.Put("q", cacheResults(2), cacheT0, m.charge, m.free)
	if _, ok := c.Get("q", cacheT0.Add(59*time.Second), m.free); !ok {
		t.Fatal("fresh entry missed")
	}
	got, ok := c.Get("q", cacheT0.Add(61*time.Second), m.free)
	if ok || got != nil {
		t.Fatal("expired entry served")
	}
	if m.freed != m.charged {
		t.Errorf("expiry freed %d, want %d", m.freed, m.charged)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("expired entry lingers: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}

// Byte-bound overflow evicts strictly oldest-first (FIFO insertion order).
func TestCacheFIFOEviction(t *testing.T) {
	entry := EntrySize("q0", cacheResults(2))
	c := mustCache(t, 2*entry+entry/2, time.Minute) // room for two entries
	m := &epcMirror{}
	for i := 0; i < 3; i++ {
		if !c.Put(fmt.Sprintf("q%d", i), cacheResults(2), cacheT0.Add(time.Duration(i)), m.charge, m.free) {
			t.Fatalf("entry %d rejected", i)
		}
		if i < 2 && m.freed != 0 {
			t.Fatalf("entry %d freed %d before overflow", i, m.freed)
		}
	}
	if m.freed != entry {
		t.Fatalf("overflow freed %d, want %d", m.freed, entry)
	}
	if _, ok := c.Get("q0", cacheT0, nil); ok {
		t.Error("oldest entry survived FIFO eviction")
	}
	for _, k := range []string{"q1", "q2"} {
		if _, ok := c.Get(k, cacheT0, nil); !ok {
			t.Errorf("entry %s wrongly evicted", k)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheOversizeEntryRejected(t *testing.T) {
	c := mustCache(t, 128, time.Minute)
	m := &epcMirror{}
	if c.Put("q", cacheResults(50), cacheT0, m.charge, m.free) {
		t.Error("oversize entry stored")
	}
	if m.charged != 0 || c.Len() != 0 {
		t.Errorf("oversize entry charged %d, len %d", m.charged, c.Len())
	}
}

// An entry leaves the cache exactly once: the first Get past its expiry
// removes it and frees its bytes, a second finds nothing and frees nothing.
func TestCacheRemove(t *testing.T) {
	c := mustCache(t, 1<<20, time.Minute)
	m := &epcMirror{}
	c.Put("q", cacheResults(2), cacheT0, m.charge, m.free)
	later := cacheT0.Add(time.Hour)
	if _, ok := c.Get("q", later, m.free); ok {
		t.Error("Get served an expired entry")
	}
	if m.freed != m.charged {
		t.Errorf("removal freed %d, want %d", m.freed, m.charged)
	}
	if _, ok := c.Get("q", later, m.free); ok || m.freed != m.charged {
		t.Errorf("second Get: ok=%t, freed %d of %d charged", ok, m.freed, m.charged)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("Len/Bytes = %d/%d after remove", c.Len(), c.Bytes())
	}
}

// The EPC contract the proxy relies on: across arbitrary insert/replace/
// evict/expire churn, charged and freed bytes balance the live footprint
// exactly — and once everything is gone, total charged == total freed.
func TestCacheAllocFreeSymmetry(t *testing.T) {
	entry := EntrySize("key-00", cacheResults(2))
	c := mustCache(t, 3*entry, 10*time.Second)
	m := &epcMirror{}
	now := cacheT0
	for i := 0; i < 200; i++ {
		now = now.Add(500 * time.Millisecond) // entries expire mid-run
		key := fmt.Sprintf("key-%02d", i%7)   // replacements and evictions
		switch i % 5 {
		case 3:
			c.Get(key, now, m.free)
		case 4: // a Get an hour on removes the key
			c.Get(key, now.Add(time.Hour), m.free)
		default:
			c.Put(key, cacheResults(1+i%4), now, m.charge, m.free)
		}
		if got := m.charged - m.freed; got != c.Bytes() {
			t.Fatalf("step %d: charged-freed = %d, live bytes = %d", i, got, c.Bytes())
		}
	}
	for i := 0; i < 7; i++ {
		c.Get(fmt.Sprintf("key-%02d", i), now.Add(time.Hour), m.free)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("expiry left Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	if m.charged != m.freed {
		t.Errorf("total charged %d != total freed %d after full churn", m.charged, m.freed)
	}
	if m.charged == 0 {
		t.Error("test exercised nothing")
	}
}

// Same symmetry under concurrency: the callbacks run under the cache
// lock, so atomic tallies must balance the final footprint exactly (run
// with -race). This is the regression test for the charge/mutation
// atomicity the proxy's heap==history+cache invariant depends on.
func TestCacheConcurrentChurn(t *testing.T) {
	c := mustCache(t, 8<<10, time.Minute)
	var charged, freed atomic.Int64
	chargeFn := func(n int64) error { charged.Add(n); return nil }
	freeFn := func(n int64) { freed.Add(n) }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", (w+i)%13)
				switch i % 3 {
				case 0:
					c.Get(key, cacheT0, freeFn)
				case 1: // a Get an hour on removes the key
					c.Get(key, cacheT0.Add(time.Hour), freeFn)
				default:
					c.Put(key, cacheResults(i%3), cacheT0, chargeFn, freeFn)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := charged.Load() - freed.Load(); got != c.Bytes() {
		t.Errorf("charged-freed = %d, live bytes = %d", got, c.Bytes())
	}
	if c.Bytes() > c.maxBytes {
		t.Errorf("cache exceeded its bound: %d > %d", c.Bytes(), c.maxBytes)
	}
}
